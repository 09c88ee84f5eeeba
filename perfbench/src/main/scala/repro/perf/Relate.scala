package repro.perf

import scala.collection.mutable

import repro.core.Cmdl
import repro.discover.{DocToTable, JoinDiscovery, UnionDiscovery}
import repro.ekg.Srql
import repro.lake.ColRef
import repro.profile.{ColumnProfile, Tags}
import repro.sketch.LshEnsemble

/** `relate`: SRQL table-to-table discovery.
  *
  * Light calls: `pkfk(table, 10)` for every table of the three lakes. Heavy
  * calls: `unionable(table, 10)` for a fixed sample of `UnionCalls` tables,
  * shared out over the lakes in proportion to their table counts and spread
  * evenly over each lake's tables in name order; a full `unionable` sweep of
  * ML-Open alone takes about 40 s, more than a run. Each round issues all of
  * them in seed order. Union scoring (`discover`) and LSH probes (`sketch`)
  * do the work; text search, labels and training stay idle.
  */
final class Relate(env: Env) extends Workload {
  import Relate._

  val name = "relate"
  val ops = new Ops
  private val trace = env.trace

  private val tablesOf: Seq[Seq[String]] = env.lakes.map(_.tables.map(_.name).sorted)
  val unionSample: Seq[Seq[String]] = sample(tablesOf)
  /** Exact raw values per table, filled as tables are first met. */
  private val valueSets = mutable.HashMap.empty[(Int, String), Set[String]]
  /** The sessions of the last round, kept reachable for the heap figure. */
  private var sessions: Seq[Srql] = Nil

  /** Traced runs count LSH candidates per probe with an index over the same
    * entries as `SyntacticIndex`, probed for every entry it holds, outside
    * the timed call.
    */
  private lazy val probeIndexes: Seq[LshEnsemble] = env.cmdls.map { c =>
    new LshEnsemble(c.colProfiles.filter(_.hasTag(Tags.Joinable)).map(p => LshEnsemble.Entry(p.ref, p.sig, p.card)))
  }

  private def countCandidates(i: Int, table: String): Unit =
    for (col <- env.cmdls(i).colProfiles if col.table == table && col.hasTag(Tags.Joinable)) {
      trace.count("sketch.lsh_probes")
      trace.count("sketch.lsh_candidates", probeIndexes(i).query(col.sig, col.card, Int.MaxValue).size)
    }

  /** A few `pkfk` calls per lake and one pass of the `unionable` sample:
    * with less, the first round's union scoring still runs JIT-cold.
    */
  def warmUp(): Unit =
    for (((c, tables), sample) <- env.cmdls.zip(tablesOf).zip(unionSample)) {
      c.syntacticIndex; c.unionIndex
      val srql = new Srql(c)
      tables.take(40).foreach(srql.pkfk(_, TopN))
      sample.foreach(srql.unionable(_, TopN))
    }

  private def values(i: Int, table: String): Set[String] =
    valueSets.getOrElseUpdate((i, table),
      env.lakes(i).tables.filter(_.name == table).flatMap(_.columns.flatMap(_.values)).toSet)

  def round(): Unit = {
    val lakes = env.lakes.indices
    val srqls = lakes.map(i => i -> new Srql(env.cmdls(i))).toMap
    val calls = lakes.flatMap(i => tablesOf(i).map(t => (i, t, false)) ++ unionSample(i).map(t => (i, t, true)))
    for ((i, t, union) <- env.rnd.shuffle(calls)) {
      def common(items: Seq[(String, Double)]) =
        Checks.ranked(items, TopN).orElse(Checks.excludes(items, t)).orElse(Checks.unitScores(items))
      if (union) ops.heavy(s"unionable($t)")(unionable(srqls(i), env.cmdls(i), t))(common)
      else {
        ops.light("pkfk", s"pkfk($t)")(pkfk(srqls(i), i, t)) { items =>
          common(items).orElse(Checks.sharesValue(items, values(i, t), values(i, _)))
        }
        if (trace.enabled) countCandidates(i, t)
      }
    }
    for ((_, s) <- srqls) { trace.count("ekg.sessions"); trace.count("ekg.edges_total", s.ekg.size) }
    sessions = srqls.values.toSeq
  }

  /** Mean R-precision over Table 3's CMDL rows (2A, 2B, 2C-SS, 2C-MS,
    * 2C-LS) and the 3B union queries, each over its collection's own index.
    */
  def rprec(): Double = {
    val byId = env.cmdls.flatMap(c => c.lake.joinBenches.map(b => b.id -> (c, b))).toMap
    val join = Seq("2A", "2B", "2C-SS", "2C-MS", "2C-LS").map { id =>
      val (c, bench) = byId(id)
      val profiles = c.profilesIn(bench.workload)
      val byRef = profiles.map(p => p.ref -> p).toMap
      val index = new JoinDiscovery.SyntacticIndex(profiles)
      Checks.rPrecision[ColRef, ColRef](bench.queries,
        (q, k) => byRef.get(q.render).map(p => index.topK(p, k).map(_._1)).getOrElse(Nil))
    }
    val union = for {
      c <- env.cmdls
      bench <- c.lake.unionBenches if bench.id == "3B"
    } yield {
      val index = new UnionDiscovery.UnionIndex(c.profilesIn(bench.workload))
      Checks.rPrecision[String, String](bench.queries,
        (q, k) => index.topK(q, k, UnionDiscovery.ensembleScore).map(_._1))
    }
    Stats.mean(join ++ union)
  }

  private def pkfk(srql: Srql, i: Int, table: String): Seq[(String, Double)] = {
    val c = env.cmdls(i)
    if (!trace.enabled) srql.pkfk(table, TopN).items
    else {
      val cols = c.colProfiles.filter(_.table == table)
      trace.span("ekg.pkfk") {
        val colHits = cols.flatMap { col =>
          val hits = trace.span("discover.syntactic_topk")(c.syntacticIndex.topK(col, TopN * 3))
          if (col.hasTag(Tags.Joinable)) trace.count("sketch.lsh_returned", hits.size)
          hits
        }
        val tables = trace.span("discover.aggregate_tables")(DocToTable.aggregateToTables(colHits, TopN))
        tables.foreach { case (t, s) => srql.ekg.add(table, t, "pkfk", s) }
        tables
      }
    }
  }

  private def unionable(srql: Srql, c: Cmdl, table: String): Seq[(String, Double)] =
    if (!trace.enabled) srql.unionable(table, TopN).items
    else trace.span("ekg.unionable") {
      var calls, positive, ns = 0L
      val counting: UnionDiscovery.ColumnScorer = (a: ColumnProfile, b: ColumnProfile) => {
        val t0 = System.nanoTime()
        val s = UnionDiscovery.ensembleScore(a, b)
        ns += System.nanoTime() - t0
        calls += 1
        if (s > 0) positive += 1
        s
      }
      val hits = trace.span("discover.union_topk")(c.unionIndex.topK(table, TopN, counting))
      trace.count("discover.union_queries")
      trace.count("discover.union_score_calls", calls.toDouble)
      trace.count("discover.union_positive_pairs", positive.toDouble)
      trace.count("discover.union_score_ns", ns.toDouble)
      hits.foreach { case (t, s) => srql.ekg.add(table, t, "unionable", s) }
      hits
    }
}

object Relate {
  val TopN = 10
  /** `unionable` calls per round, over all lakes. */
  val UnionCalls = 18

  /** About `UnionCalls` tables, each lake's share in proportion to its
    * table count (3/5/10 of 79/124/245 on the default lakes), spread evenly
    * over its tables.
    */
  def sample(tablesOf: Seq[Seq[String]]): Seq[Seq[String]] = {
    val total = tablesOf.map(_.size).sum.toDouble
    tablesOf.map { ts =>
      val n = math.min(ts.size, math.max(1, math.round(UnionCalls * ts.size / total).toInt))
      (0 until n).map(j => ts(((j + 0.5) * ts.size / n).toInt))
    }
  }
}
