package repro.perf

import scala.collection.mutable

import repro.core.Cmdl
import repro.discover.DocToTable
import repro.ekg.Srql
import repro.joint.TripletTraining
import repro.lake.ColRef

/** The second part of `ingest-train-search`: weak supervision and joint
  * training on the lakes just built, then search in the joint space.
  *
  * Heavy calls: `weakLabels()` then `trainJoint` on each lake, with the
  * default `TripletTraining.Config` capped at `MaxEpochs` epochs (the
  * uncapped defaults run 100/240/84 epochs, about 106 s, more than a run).
  * Light calls: joint-space `crossModalSearch` for every 1A, 1B and 1C query,
  * `Sweeps` times in seed order. Only `label` and `joint` work, plus
  * `core.pairFeatures` and `Bm25Index.score` through the relatedness function.
  */
final class Train(env: Env, ops: Ops) {
  import Train._

  private val trace = env.trace

  private val answers = mutable.HashMap.empty[(Int, String), Seq[String]]
  private val joints = mutable.HashMap.empty[Int, Cmdl#Joint]
  /** The sessions of the last round, kept reachable for the heap figure. */
  private var sessions: Seq[Srql] = Nil

  def warmUp(): Unit =
    for (c <- env.cmdls) {
      val joint = c.trainJoint(c.weakLabels(), Config.copy(maxEpochs = 1))
      val srql = new Srql(c, Some(joint))
      c.lake.docBenches.flatMap(_.queries.keys).foreach(srql.crossModalSearch(_, TopN))
    }

  def round(): Unit = {
    val lakes = env.lakes.indices
    for (i <- lakes) {
      val c = env.cmdls(i)
      for {
        labels <- ops.heavy(s"weakLabels ${c.lake.name}")(weakLabels(c))(l => Checks.lfAccuracies(l.lfAccuracies))
        joint <- ops.heavy(s"trainJoint ${c.lake.name}")(trainJoint(c)(labels)) { j =>
          Checks.training(j.lossHistory, j.epochs, Config.maxEpochs)
            .orElse(Checks.embeddings(c.docProfiles.map(_.id), j.docEmb))
            .orElse(Checks.embeddings(c.lfs.textCols.map(_.ref), j.colEmb))
        }
      } joints(i) = joint
    }
    // Training leaves garbage; collect it so the searches pay for their own.
    System.gc()
    sessions = for (i <- lakes; joint <- joints.get(i)) yield {
      val c = env.cmdls(i)
      val srql = new Srql(c, Some(joint))
      val embByTable = c.lfs.textCols.groupBy(_.table).view.mapValues(_.map(col => joint.colEmb(col.ref))).toMap
      val queries = c.lake.docBenches.flatMap(_.queries.keys).distinct.sorted
      for (_ <- 0 until Sweeps; doc <- env.rnd.shuffle(queries)) {
        ops.light("crossModalSearch joint", s"crossModalSearch($doc) joint")(crossModal(srql, c, joint, doc)) { items =>
          Checks.ranked(items, TopN).orElse(Checks.maxCosine(items, joint.docEmb(doc), embByTable, TopN))
        }.foreach(items => answers((i, doc)) = items.map(_._1))
      }
      trace.count("ekg.sessions")
      trace.count("ekg.edges_total", srql.ekg.size)
      srql
    }
  }

  /** Mean over 1A, 1B and 1C of the R-precision of joint-space search. */
  def rprec(): Double = {
    val perBench = for {
      (lake, i) <- env.lakes.zipWithIndex
      bench <- lake.docBenches
      joint <- joints.get(i)
    } yield Checks.rPrecision[String, String](bench.queries, (doc, k) =>
      if (k <= TopN) answers.getOrElse((i, doc), Nil)
      else new Srql(env.cmdls(i), Some(joint)).crossModalSearch(doc, k).names)
    Stats.mean(perBench)
  }

  private def weakLabels(c: Cmdl): c.WeakLabels =
    if (!trace.enabled) c.weakLabels()
    else {
      val labels = trace.span("label.weak_labels")(c.weakLabels())
      val docs = labels.sampledDocs.map(c.docById)
      for (d <- docs) {
        trace.span("label.lf_probe")(c.lfs.probe(d))
        trace.span("embed.annoy_query")(c.lfs.annoy.query(d.contentEmb, c.lfs.k))
      }
      // The discriminator's inputs, one layer at a time, on the sampled pairs.
      for (d <- docs; colRef <- labels.sampledCols) {
        val col = c.colByRef(colRef)
        trace.span("core.pair_features")(c.pairFeatures(d, col))
        trace.span("text.bm25_score")(c.lfs.bm25Content.score(d.bag, colRef))
      }
      labelQuality(c)(labels)
      labels
    }

  /** Weak labels (relatedness >= 0.5) on the sampled pairs of the documents
    * that have Doc→Table ground truth, against its column-level links.
    */
  private def labelQuality(c: Cmdl)(labels: c.WeakLabels): Unit = {
    val truth: Map[String, Set[ColRef]] = c.lake.docBenches.flatMap(_.docColumns).toMap
    val rel = labels.rel(c) _
    for (d <- labels.sampledDocs if truth.contains(d); colRef <- labels.sampledCols) {
      val predicted = rel(d, colRef) >= Config.posThreshold
      val actual = truth(d).contains(ColRef.parse(colRef))
      if (predicted) trace.count("label.predicted_pos")
      if (actual) trace.count("label.actual_pos")
      if (predicted && actual) trace.count("label.true_pos")
    }
  }

  /** `Cmdl.trainJoint`, made one layer at a time when traced, with `rel`
    * wrapped to count its calls and distinct pairs and time its work.
    */
  private def trainJoint(c: Cmdl)(labels: c.WeakLabels): Cmdl#Joint =
    if (!trace.enabled) c.trainJoint(labels, Config)
    else trace.span("core.train_joint") {
      val base = labels.rel(c) _
      val pairs = mutable.HashSet.empty[(String, String)]
      var calls, ns = 0L
      val rel = (d: String, col: String) => {
        val t0 = System.nanoTime()
        val r = base(d, col)
        ns += System.nanoTime() - t0
        calls += 1
        pairs += ((d, col))
        r
      }
      val docDes = c.docProfiles.map(d => TripletTraining.De(d.id, TripletTraining.encode(d.metaEmb, d.contentEmb)))
      val colDes = c.lfs.textCols.map(col => TripletTraining.De(col.ref, TripletTraining.encode(col.metaEmb, col.contentEmb)))
      val result = trace.span("joint.train")(TripletTraining.train(docDes, colDes, rel, Config))
      trace.count("joint.trainings")
      trace.count("joint.epochs", result.epochs)
      trace.count("joint.triplets", result.totalTriplets.toDouble)
      trace.count("joint.rel_calls", calls.toDouble)
      trace.count("joint.rel_distinct_pairs", pairs.size)
      trace.count("joint.rel_ns", ns.toDouble)
      trace.span("joint.apply") {
        c.Joint(result.model, result.epochs, result.lossHistory,
          docEmb = TripletTraining.applyModel(result.model, docDes),
          colEmb = TripletTraining.applyModel(result.model, colDes))
      }
    }

  private def crossModal(srql: Srql, c: Cmdl, joint: Cmdl#Joint, doc: String): Seq[(String, Double)] =
    if (!trace.enabled) srql.crossModalSearch(doc, TopN).items
    else trace.span("ekg.cross_modal_search") {
      val tables = trace.span("discover.embedding_rank_joint")(DocToTable.embeddingRank(joint.docEmb(doc),
        c.lfs.textCols, col => joint.colEmb.getOrElse(col.ref, new Array[Float](100)), TopN))
      tables.foreach { case (t, s) => srql.ekg.add(doc, t, "crossmodal", s) }
      tables
    }
}

object Train {
  val TopN = 10
  /** The default training configuration with the epoch cap of a run. */
  val MaxEpochs = 10
  val Config: TripletTraining.Config = TripletTraining.Config(maxEpochs = MaxEpochs)
  /** Joint-search sweeps over the Doc→Table queries per round. */
  val Sweeps = 2
}
