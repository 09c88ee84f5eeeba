package repro.perf

import org.scalatest.funsuite.AnyFunSuite

import repro.profile.{ColumnProfile, DocProfile, RawColumn, RawDoc}

/** Every output check accepts a right answer and rejects a wrong one. */
class ChecksSpec extends AnyFunSuite {

  private def col(table: String, column: String, rows: Long, card: Long): ColumnProfile =
    ColumnProfile("c", table, column, "text", rows, card, 1.0, Nil, Array.empty, Array.empty, Array.empty,
      Array.empty, Double.NaN, Double.NaN, Nil)

  private def doc(id: String): DocProfile = DocProfile("d", id, id, Nil, 0, Array.empty, Array.empty, Array.empty)

  private val raw = Seq(
    RawColumn("c", "t", "a", "text", Seq(" X", "x", "y", "", "  ")),
    RawColumn("c", "t", "b", "text", Seq("1", "2")))

  private def fails(v: Checks.Verdict): Boolean = v.isDefined
  private def holds(v: Checks.Verdict): Boolean = v.isEmpty

  test("column profiles: exact recount of trimmed, lowercased, non-empty values") {
    assert(Checks.recount(raw.head) == ((3L, 2L)))
    assert(holds(Checks.columnProfiles(raw, Seq(col("t", "a", 3, 2), col("t", "b", 2, 2)))))
    assert(fails(Checks.columnProfiles(raw, Seq(col("t", "a", 5, 2), col("t", "b", 2, 2)))), "wrong rows")
    assert(fails(Checks.columnProfiles(raw, Seq(col("t", "a", 3, 3), col("t", "b", 2, 2)))), "wrong card")
    assert(fails(Checks.columnProfiles(raw, Seq(col("t", "a", 3, 2)))), "missing profile")
    assert(fails(Checks.columnProfiles(raw, Seq(col("t", "a", 3, 2), col("t", "a", 3, 2)))), "duplicate profile")
  }

  test("document profiles: exactly one per document") {
    val docs = Seq(RawDoc("d", "1", "t", "x"), RawDoc("d", "2", "t", "y"))
    assert(holds(Checks.docProfiles(docs, Seq(doc("1"), doc("2")))))
    assert(fails(Checks.docProfiles(docs, Seq(doc("1"), doc("1")))))
    assert(fails(Checks.docProfiles(docs, Seq(doc("1")))))
  }

  test("ranked: at most topn items, scores never increase, all finite") {
    assert(holds(Checks.ranked(Seq("a" -> 2.0, "b" -> 2.0, "c" -> 1.0), 3)))
    assert(fails(Checks.ranked(Seq("a" -> 1.0, "b" -> 2.0), 3)), "rising score")
    assert(fails(Checks.ranked(Seq("a" -> 3.0, "b" -> 2.0, "c" -> 1.0), 2)), "over topn")
    assert(fails(Checks.ranked(Seq("a" -> Double.NaN), 2)), "NaN score")
  }

  test("unit scores, and no result names the query") {
    assert(holds(Checks.unitScores(Seq("a" -> 0.0, "b" -> 1.0))))
    assert(fails(Checks.unitScores(Seq("a" -> 1.5))))
    assert(fails(Checks.unitScores(Seq("a" -> -0.1))))
    assert(holds(Checks.excludes(Seq("a" -> 1.0), "q")))
    assert(fails(Checks.excludes(Seq("q" -> 1.0), "q")))
  }

  test("returned documents share a term, returned tables share a value") {
    val terms = Map("d1" -> Set("aspirin", "dose"), "d2" -> Set("heart"))
    assert(holds(Checks.sharesTerm(Seq("d1" -> 1.0), Set("dose"), terms)))
    assert(fails(Checks.sharesTerm(Seq("d1" -> 1.0, "d2" -> 0.5), Set("dose"), terms)))
    val values = Map("t1" -> Set("x", "y"), "t2" -> Set("z"))
    assert(holds(Checks.sharesValue(Seq("t1" -> 0.9), Set("y", "w"), values)))
    assert(fails(Checks.sharesValue(Seq("t1" -> 0.9, "t2" -> 0.0), Set("y", "w"), values)))
  }

  test("cross-modal scores equal the brute-force maximum cosine per table") {
    val byTable = Map(
      "t1" -> Seq(Array(1f, 0f), Array(0f, 1f)),
      "t2" -> Seq(Array(1f, 1f)),
      "t3" -> Seq(Array(-1f, 0f)))
    val q = Array(1f, 0f)
    val right = Seq("t1" -> 1.0, "t2" -> math.sqrt(0.5), "t3" -> 0.0)
    assert(holds(Checks.maxCosine(right, q, byTable, 3)))
    assert(fails(Checks.maxCosine(Seq("t1" -> 0.5, "t2" -> math.sqrt(0.5)), q, byTable, 2)), "wrong score")
    assert(fails(Checks.maxCosine(Seq("t2" -> math.sqrt(0.5), "t3" -> 0.0), q, byTable, 2)), "missed the best table")
    assert(fails(Checks.maxCosine(Seq("t9" -> 1.0), q, byTable, 1)), "unknown table")
  }

  test("four LF accuracies strictly inside (0, 1)") {
    assert(holds(Checks.lfAccuracies(Seq(0.6, 0.7, 0.8, 0.9))))
    assert(fails(Checks.lfAccuracies(Seq(0.6, 0.7, 0.8))))
    assert(fails(Checks.lfAccuracies(Seq(0.6, 0.7, 0.8, 1.0))))
    assert(fails(Checks.lfAccuracies(Seq(0.0, 0.7, 0.8, 0.9))))
  }

  test("one finite 100-d embedding per DE") {
    val ok = Array.fill(100)(0.1f)
    assert(holds(Checks.embeddings(Seq("a", "b"), Map("a" -> ok, "b" -> ok))))
    assert(fails(Checks.embeddings(Seq("a", "b"), Map("a" -> ok))), "missing")
    assert(fails(Checks.embeddings(Seq("a"), Map("a" -> Array.fill(99)(0.1f)))), "wrong dimension")
    assert(fails(Checks.embeddings(Seq("a"), Map("a" -> ok.updated(3, Float.NaN)))), "NaN")
  }

  test("training: finite non-negative losses, last below first, epochs within the cap") {
    assert(holds(Checks.training(Seq(0.5, 0.3, 0.2), 3, 5)))
    assert(fails(Checks.training(Seq(0.5, 0.3, 0.2), 3, 2)), "epochs over the cap")
    assert(fails(Checks.training(Seq(0.2, 0.3, 0.5), 3, 5)), "loss went up")
    assert(fails(Checks.training(Seq(0.5, -0.1), 2, 5)), "negative loss")
    assert(fails(Checks.training(Seq(0.5, Double.PositiveInfinity, 0.1), 3, 5)), "infinite loss")
    assert(fails(Checks.training(Seq(0.5, 0.1), 3, 5)), "history shorter than the epochs")
  }

  test("R-precision: hits in the top |truth| answers, averaged over queries") {
    val truth = Map("q1" -> Set("a", "b"), "q2" -> Set("c"))
    val answers = Map("q1" -> Seq("a", "x", "b"), "q2" -> Seq("c", "a"))
    assert(Checks.rPrecision[String, String](truth, (q, _) => answers(q)) == (0.5 + 1.0) / 2)
    assert(Checks.rPrecision[String, String](truth, (_, _) => Seq("z")) == 0.0)
  }
}
