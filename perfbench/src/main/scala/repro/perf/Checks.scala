package repro.perf

import repro.profile.{ColumnProfile, DocProfile, RawColumn, RawDoc}

/** Output checks. Each returns `None` when the output holds and `Some(reason)`
  * when it does not. They recompute what they compare against from the raw
  * lake or from the method's definition, never by calling the code under test.
  */
object Checks {

  type Verdict = Option[String]

  private def firstFailure(vs: Iterator[Verdict]): Verdict = vs.collectFirst { case Some(m) => m }

  /** Exact profile of a raw column: rows and distinct count of its trimmed,
    * lowercased, non-empty values.
    */
  def recount(raw: RawColumn): (Long, Long) = {
    val norm = raw.values.iterator.map(_.trim.toLowerCase).filter(_.nonEmpty).toVector
    (norm.size.toLong, norm.distinct.size.toLong)
  }

  /** Every raw column has exactly one profile, whose rows and cardinality
    * equal an exact recount.
    */
  def columnProfiles(raw: Seq[RawColumn], profiles: Seq[ColumnProfile]): Verdict = {
    val byKey = profiles.groupBy(p => (p.collection, p.table, p.column))
    if (profiles.size != raw.size) return Some(s"${profiles.size} column profiles for ${raw.size} columns")
    firstFailure(raw.iterator.map { r =>
      byKey.get((r.collection, r.table, r.column)) match {
        case Some(Seq(p)) =>
          val (rows, card) = recount(r)
          if (p.rows != rows || p.card != card)
            Some(s"${r.table}.${r.column}: profile rows/card ${p.rows}/${p.card}, recount $rows/$card")
          else None
        case Some(ps) => Some(s"${r.table}.${r.column} has ${ps.size} profiles")
        case None     => Some(s"${r.table}.${r.column} has no profile")
      }
    })
  }

  /** Every document has exactly one profile. */
  def docProfiles(raw: Seq[RawDoc], profiles: Seq[DocProfile]): Verdict = {
    val counts = profiles.groupBy(_.id).view.mapValues(_.size).toMap
    if (profiles.size != raw.size) Some(s"${profiles.size} document profiles for ${raw.size} documents")
    else firstFailure(raw.iterator.map(d => counts.getOrElse(d.id, 0) match {
      case 1 => None
      case n => Some(s"document ${d.id} has $n profiles")
    }))
  }

  /** At most `topn` items, finite scores that never increase down the list. */
  def ranked(items: Seq[(String, Double)], topn: Int): Verdict =
    if (items.size > topn) Some(s"${items.size} items for topn $topn")
    else if (items.exists(i => i._2.isNaN || i._2.isInfinite)) Some("non-finite score")
    else items.iterator.zip(items.iterator.drop(1)).collectFirst {
      case ((a, sa), (b, sb)) if sb > sa => s"score rises from $a ($sa) to $b ($sb)"
    }

  /** Scores lie in [0, 1]. */
  def unitScores(items: Seq[(String, Double)]): Verdict =
    items.collectFirst { case (n, s) if !(s >= 0.0 && s <= 1.0) => s"$n scores $s, outside [0, 1]" }

  /** No item names the query itself. */
  def excludes(items: Seq[(String, Double)], query: String): Verdict =
    if (items.exists(_._1 == query)) Some(s"result names the query $query") else None

  /** Every returned name's term set shares a term with the query. */
  def sharesTerm(items: Seq[(String, Double)], query: Set[String], termsOf: String => Set[String]): Verdict =
    items.collectFirst { case (n, _) if !termsOf(n).exists(query.contains) => s"$n shares no term with the query" }

  /** Every returned table shares at least one exact value with the query. */
  def sharesValue(items: Seq[(String, Double)], query: Set[String], valuesOf: String => Set[String]): Verdict =
    items.collectFirst {
      case (t, s) if !intersects(valuesOf(t), query) => s"$t (score $s) shares no value with the query table"
    }

  private def intersects(a: Set[String], b: Set[String]): Boolean =
    if (a.size < b.size) a.exists(b.contains) else b.exists(a.contains)

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < a.length) {
      dot += a(i).toDouble * b(i); na += a(i).toDouble * a(i); nb += b(i).toDouble * b(i)
      i += 1
    }
    if (na == 0.0 || nb == 0.0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Doc→Table scores by brute force: each table scores the maximum
    * (floored at 0) cosine between the document and its text-search columns.
    * Each returned table must score its brute-force value, and the scores
    * down the list must equal the brute-force top scores.
    */
  def maxCosine(items: Seq[(String, Double)], doc: Array[Float],
      colsByTable: Map[String, Seq[Array[Float]]], topn: Int, tol: Double = 1e-5): Verdict = {
    val all = colsByTable.map { case (t, es) => t -> es.map(e => math.max(0.0, cosine(doc, e))).max }
    val top = all.values.toSeq.sorted(Ordering[Double].reverse).take(topn)
    items.collectFirst {
      case (t, s) if !all.get(t).exists(e => math.abs(e - s) <= tol) =>
        s"$t scores $s, brute force ${all.get(t).fold("has no text-search column")(_.toString)}"
    }.orElse {
      if (items.size != top.size) Some(s"${items.size} tables where brute force ranks ${top.size}")
      else items.iterator.map(_._2).zip(top.iterator).collectFirst {
        case (s, e) if math.abs(s - e) > tol => s"score $s where brute force ranks $e"
      }
    }
  }

  /** Four labeling-function accuracies, each strictly between 0 and 1. */
  def lfAccuracies(accs: Seq[Double]): Verdict =
    if (accs.size != 4) Some(s"${accs.size} LF accuracies, expected 4")
    else accs.collectFirst { case a if !(a > 0.0 && a < 1.0) => s"LF accuracy $a outside (0, 1)" }

  /** One finite embedding of dimension `dim` per id. */
  def embeddings(ids: Seq[String], emb: Map[String, Array[Float]], dim: Int = 100): Verdict =
    if (emb.size != ids.distinct.size) Some(s"${emb.size} embeddings for ${ids.distinct.size} DEs")
    else ids.iterator.map { id =>
      emb.get(id) match {
        case None                                        => Some(s"no embedding for $id")
        case Some(v) if v.length != dim                  => Some(s"$id embedding has ${v.length} dims")
        case Some(v) if v.exists(x => x.isNaN || x.isInfinite) => Some(s"$id embedding is not finite")
        case _                                           => None
      }
    }.collectFirst { case Some(m) => m }

  /** Loss history: one finite non-negative value per epoch, the last below
    * the first, and no more epochs than the configured maximum.
    */
  def training(losses: Seq[Double], epochs: Int, maxEpochs: Int): Verdict =
    if (epochs > maxEpochs) Some(s"$epochs epochs exceed maxEpochs $maxEpochs")
    else if (losses.size != epochs) Some(s"${losses.size} losses for $epochs epochs")
    else if (losses.isEmpty) Some("no epoch ran")
    else if (losses.exists(l => l.isNaN || l.isInfinite || l < 0)) Some("loss not finite and non-negative")
    else if (!(losses.last < losses.head)) Some(s"last loss ${losses.last} not below first ${losses.head}")
    else None

  /** R-precision averaged over the queries: the top-k answer with k the
    * size of the query's ground truth, scored as the share of hits.
    */
  def rPrecision[Q, A](truth: Map[Q, Set[A]], answer: (Q, Int) => Seq[A]): Double =
    if (truth.isEmpty) 0.0
    else truth.toSeq.map { case (q, gt) =>
      if (gt.isEmpty) 0.0 else answer(q, gt.size).take(gt.size).count(gt.contains).toDouble / gt.size
    }.sum / truth.size
}
