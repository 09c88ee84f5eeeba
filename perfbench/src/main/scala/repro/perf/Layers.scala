package repro.perf

import repro.perf.Stats.Metric

/** Per-layer metrics of a traced run, derived from its spans and counters.
  *
  * `_ms` figures are the mean duration per call (`discover.union_topk_ms`
  * too, so that `discover.union_score_ms`, a mean per query, subtracts from
  * it); `_us` figures are the median per call. Counts and ratios are per call
  * of the operation named (per unionable query, per LSH probe, per SRQL
  * session, per training). A layer with no span in the run reads 0.
  */
object Layers {

  /** Layers, named after the program's packages (`core` for `Cmdl`). */
  val Names: Seq[String] = Seq("lake", "profile", "sketch", "embed", "text", "label", "joint", "discover", "ekg", "core")

  private def ms(ns: Double): Double = ns / 1e6

  def metrics(trace: Trace, gcMs: Double): Seq[Metric] = {
    def durs(name: String): Seq[Double] = trace.durations(name).map(_.toDouble)
    def meanMs(name: String): Double = ms(Stats.mean(durs(name)))
    def p50Us(name: String): Double = { val d = durs(name); if (d.isEmpty) 0.0 else Stats.median(d) / 1e3 }
    def totalMs(name: String): Double = ms(durs(name).sum)
    def per(counter: String, base: String): Double = {
      val b = trace.counter(base)
      if (b == 0) 0.0 else trace.counter(counter) / b
    }
    val epochs = trace.counter("joint.epochs")
    val self = trace.selfTimeByLayer

    Seq(
      Metric("lake.gen_ms", totalMs("lake.gen"), "ms"),
      Metric("profile.cold_ms", totalMs("profile.cold"), "ms"),
      Metric("profile.columns_ms", meanMs("profile.columns"), "ms"),
      Metric("profile.docs_ms", meanMs("profile.docs"), "ms"),
      Metric("profile.column_sketch_ms", meanMs("profile.column_sketch"), "ms"),
      Metric("sketch.minhash_signature_us", p50Us("sketch.minhash_signature"), "us"),
      Metric("embed.mean_pool_us", p50Us("embed.mean_pool"), "us"),
      Metric("text.bm25_build_ms", meanMs("text.bm25_build"), "ms"),
      Metric("sketch.lsh_build_ms", meanMs("sketch.lsh_build"), "ms"),
      Metric("embed.annoy_build_ms", meanMs("embed.annoy_build"), "ms"),
      Metric("discover.syntactic_index_build_ms", meanMs("discover.syntactic_index_build"), "ms"),
      Metric("discover.union_index_build_ms", meanMs("discover.union_index_build"), "ms"),
      Metric("text.bm25_query_us", p50Us("text.bm25_query"), "us"),
      Metric("text.bm25_query_calls", durs("text.bm25_query").size.toDouble, "count"),
      Metric("discover.aggregate_tables_us", p50Us("discover.aggregate_tables"), "us"),
      Metric("discover.embedding_rank_us", p50Us("discover.embedding_rank"), "us"),
      Metric("discover.embedding_rank_joint_us", p50Us("discover.embedding_rank_joint"), "us"),
      Metric("discover.union_topk_ms", meanMs("discover.union_topk"), "ms"),
      Metric("discover.union_score_calls", per("discover.union_score_calls", "discover.union_queries"), "count"),
      Metric("discover.union_positive_pairs", per("discover.union_positive_pairs", "discover.union_queries"), "count"),
      Metric("discover.union_score_ms", ms(per("discover.union_score_ns", "discover.union_queries")), "ms"),
      Metric("discover.syntactic_topk_us", p50Us("discover.syntactic_topk"), "us"),
      Metric("sketch.lsh_candidates", per("sketch.lsh_candidates", "sketch.lsh_probes"), "count"),
      Metric("sketch.lsh_returned", per("sketch.lsh_returned", "sketch.lsh_probes"), "count"),
      Metric("ekg.edges", per("ekg.edges_total", "ekg.sessions"), "count"),
      Metric("label.weak_labels_ms", meanMs("label.weak_labels"), "ms"),
      Metric("label.lf_probe_us", p50Us("label.lf_probe"), "us"),
      Metric("embed.annoy_query_us", p50Us("embed.annoy_query"), "us"),
      Metric("label.precision", per("label.true_pos", "label.predicted_pos"), "ratio"),
      Metric("label.recall", per("label.true_pos", "label.actual_pos"), "ratio"),
      Metric("joint.train_ms", meanMs("joint.train"), "ms"),
      Metric("joint.epoch_ms", if (epochs == 0) 0.0 else totalMs("joint.train") / epochs, "ms"),
      Metric("joint.epochs", per("joint.epochs", "joint.trainings"), "count"),
      Metric("joint.triplets", per("joint.triplets", "joint.trainings"), "count"),
      Metric("joint.rel_calls", per("joint.rel_calls", "joint.trainings"), "count"),
      Metric("joint.rel_distinct_pairs", per("joint.rel_distinct_pairs", "joint.trainings"), "count"),
      Metric("joint.rel_ms", ms(per("joint.rel_ns", "joint.trainings")), "ms"),
      Metric("core.pair_features_us", p50Us("core.pair_features"), "us"),
      Metric("text.bm25_score_us", p50Us("text.bm25_score"), "us"),
      Metric("jvm.gc_ms", gcMs, "ms"),
    ) ++ Names.map(l => Metric(s"$l.self_ms", ms(self.getOrElse(l, 0L).toDouble), "ms"))
  }
}
