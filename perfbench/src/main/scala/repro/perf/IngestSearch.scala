package repro.perf

import scala.collection.mutable

import repro.core.Cmdl
import repro.discover.{DocToTable, JoinDiscovery, UnionDiscovery}
import repro.ekg.Srql
import repro.embed.{AnnoyIndex, WordVectors}
import repro.lake.{ColRef, Lake}
import repro.profile.{ColumnProfile, DocProfile, Profiler, Tags}
import repro.sketch.{LshEnsemble, MinHash}
import repro.text.{Bm25Index, Tokenizer}

/** The first part of `ingest-train-search`: bring every lake online, then
  * search it.
  *
  * Heavy calls: a warm build of each lake's `Cmdl` with every index,
  * including the lazy `bm25Docs`, `syntacticIndex` and `unionIndex`. Light
  * calls: for every document, in seed order, `contentSearch(title, "Text")`,
  * `contentSearch(title, "Table")` and solo `crossModalSearch(doc)`, over
  * `Sweeps` sweeps. Index builds (writes) and probes (reads) of the same
  * indexes sit in one workload, so a change that buys search speed with
  * build time shows. Union and join probes stay idle.
  */
final class IngestSearch(env: Env, ops: Ops) {
  import IngestSearch._

  private val trace = env.trace

  /** Solo cross-modal answers of the last sweep, per lake and document. */
  private val answers = mutable.HashMap.empty[(Int, String), Seq[String]]
  /** The sessions of the last round, kept reachable for the heap figure. */
  private var sessions: Seq[Srql] = Nil

  def warmUp(): Unit = {
    for (c <- env.cmdls) {
      c.bm25Docs; c.syntacticIndex; c.unionIndex
      val srql = new Srql(c)
      c.docProfiles.foreach { d =>
        srql.contentSearch(d.title, "Text"); srql.contentSearch(d.title, "Table"); srql.crossModalSearch(d.id, TopN)
      }
    }
  }

  def round(): Unit = {
    val lakes = env.lakes.indices
    for (i <- lakes) {
      val lake = env.lakes(i)
      ops.heavy(s"build ${lake.name}")(build(lake)) { case (cols, docs) =>
        Checks.columnProfiles(lake.rawColumns, cols).orElse(Checks.docProfiles(lake.docs, docs))
      }
      if (trace.enabled) sketchOnOneThread(lake)
    }
    // The builds leave garbage; collect it so the searches pay for their own.
    System.gc()
    sessions = for (i <- lakes) yield {
      val c = env.cmdls(i)
      val look = new Lookup(c)
      var srql: Srql = null
      for (_ <- 0 until Sweeps) {
        srql = new Srql(c)
        for (d <- env.rnd.shuffle(c.docProfiles)) {
          val terms = Tokenizer.bagOfWords(d.title).toSet
          ops.light("contentSearch Text", s"contentSearch(${d.title}, Text)")(contentText(srql, c, d.title)) { items =>
            Checks.ranked(items, TopN).orElse(Checks.sharesTerm(items, terms, look.docTerms))
          }
          ops.light("contentSearch Table", s"contentSearch(${d.title}, Table)")(contentTable(srql, c, d.title)) { items =>
            Checks.ranked(items, TopN).orElse(Checks.sharesTerm(items, terms, look.tableTerms))
          }
          ops.light("crossModalSearch", s"crossModalSearch(${d.id})")(crossModal(srql, c, d)) { items =>
            Checks.ranked(items, TopN).orElse(Checks.maxCosine(items, d.contentEmb, look.embByTable, TopN))
          }.foreach(items => answers((i, d.id)) = items.map(_._1))
        }
      }
      trace.count("ekg.sessions")
      trace.count("ekg.edges_total", srql.ekg.size)
      srql
    }
  }

  /** Mean over 1A, 1B and 1C of the R-precision of solo cross-modal search. */
  def rprec(): Double = {
    val perBench = for {
      (lake, i) <- env.lakes.zipWithIndex
      bench <- lake.docBenches
    } yield Checks.rPrecision[String, String](bench.queries, (doc, k) =>
      if (k <= TopN) answers.getOrElse((i, doc), Nil)
      else new Srql(env.cmdls(i)).crossModalSearch(doc, k).names)
    Stats.mean(perBench)
  }

  /** Builds a lake's `Cmdl` with every index. Traced, it makes the
    * constructor's calls one layer at a time and keeps the `Cmdl` built in
    * set-up for the searches.
    */
  private def build(lake: Lake): (Seq[ColumnProfile], Seq[DocProfile]) =
    if (!trace.enabled) {
      val c = new Cmdl(env.spark, lake)
      c.bm25Docs; c.syntacticIndex; c.unionIndex
      env.cmdls = env.cmdls.map(old => if (old.lake eq lake) c else old)
      (c.colProfiles, c.docProfiles)
    } else {
      trace.span("core.cmdl_build") {
        val cols = trace.span("profile.columns")(Profiler.profileColumns(env.spark, lake.rawColumns))
        val docs = trace.span("profile.docs")(Profiler.profileDocs(env.spark, lake.docs))
        val textCols = cols.filter(_.hasTag(Tags.TextSearch))
        trace.span("embed.annoy_build")(new AnnoyIndex(textCols.map(c => (c.ref, c.contentEmb)).toIndexedSeq))
        trace.span("sketch.lsh_build")(new LshEnsemble(textCols.map(c => LshEnsemble.Entry(c.ref, c.sig, c.card))))
        trace.span("text.bm25_build")(new Bm25Index(textCols.map(c => c.ref -> c.bag).toMap))
        trace.span("text.bm25_build")(new Bm25Index(textCols.map(c =>
          c.ref -> (Profiler.nameTokens(c.table) ++ Profiler.nameTokens(c.column))).toMap))
        trace.span("text.bm25_build")(new Bm25Index(docs.map(d => d.id -> d.bag).toMap))
        trace.span("discover.syntactic_index_build")(new JoinDiscovery.SyntacticIndex(cols))
        trace.span("discover.union_index_build")(new UnionDiscovery.UnionIndex(cols))
        (cols, docs)
      }
    }

  /** The per-column sketching of the profiler, on the calling thread: the whole
    * `profileColumn` per column, then its minhash and mean-pool steps alone.
    */
  private def sketchOnOneThread(lake: Lake): Unit = {
    trace.span("profile.column_sketch")(lake.rawColumns.foreach(Profiler.profileColumn))
    for (raw <- lake.rawColumns) {
      val distinct = raw.values.map(_.trim.toLowerCase).filter(_.nonEmpty).distinct
      val tokens = distinct.flatMap(Tokenizer.tokenize).distinct
      trace.span("sketch.minhash_signature")(MinHash.signature(distinct))
      trace.span("embed.mean_pool")(WordVectors.meanPool(tokens))
    }
  }

  private def contentText(srql: Srql, c: Cmdl, title: String): Seq[(String, Double)] =
    if (!trace.enabled) srql.contentSearch(title, "Text", TopN).items
    else trace.span("ekg.content_search") {
      val terms = Tokenizer.bagOfWords(title)
      val hits = trace.span("text.bm25_query")(c.bm25Docs.query(terms, TopN))
      hits.foreach { case (d, s) => srql.ekg.add(s"kw:$title", d, "keyword", s) }
      hits
    }

  private def contentTable(srql: Srql, c: Cmdl, title: String): Seq[(String, Double)] =
    if (!trace.enabled) srql.contentSearch(title, "Table", TopN).items
    else trace.span("ekg.content_search") {
      val terms = Tokenizer.bagOfWords(title)
      val colHits = trace.span("text.bm25_query")(c.lfs.bm25Content.query(terms, TopN * 6))
      val tables = trace.span("discover.aggregate_tables")(
        DocToTable.aggregateToTables(colHits.map { case (ref, s) => (ColRef.parse(ref), s) }, TopN))
      tables.foreach { case (t, s) => srql.ekg.add(s"kw:$title", t, "keyword", s) }
      tables
    }

  private def crossModal(srql: Srql, c: Cmdl, d: DocProfile): Seq[(String, Double)] =
    if (!trace.enabled) srql.crossModalSearch(d.id, TopN).items
    else trace.span("ekg.cross_modal_search") {
      val tables = trace.span("discover.embedding_rank")(
        DocToTable.embeddingRank(d.contentEmb, c.lfs.textCols, _.contentEmb, TopN))
      tables.foreach { case (t, s) => srql.ekg.add(d.id, t, "crossmodal", s) }
      tables
    }
}

object IngestSearch {
  val TopN = 10
  /** Search sweeps over every document of every lake per round. */
  val Sweeps = 2

  /** What the search checks compare against, read off one `Cmdl`'s profiles. */
  final class Lookup(c: Cmdl) {
    private val bags: Map[String, Set[String]] = c.docProfiles.map(d => d.id -> d.bag.toSet).toMap
    private val textByTable: Map[String, Seq[ColumnProfile]] = c.lfs.textCols.groupBy(_.table)
    private val tableBags: Map[String, Set[String]] = textByTable.view.mapValues(_.flatMap(_.bag).toSet).toMap
    val embByTable: Map[String, Seq[Array[Float]]] = textByTable.view.mapValues(_.map(_.contentEmb)).toMap
    val docTerms: String => Set[String] = id => bags.getOrElse(id, Set.empty)
    val tableTerms: String => Set[String] = t => tableBags.getOrElse(t, Set.empty)
  }
}
