package repro.perf

import scala.collection.mutable
import scala.util.control.NonFatal

import repro.perf.Checks.Verdict
import repro.perf.Stats.Metric

/** Counts, times and checks the operations of a workload.
  *
  * Every workload has heavy calls (batch work, one per lake or a fixed
  * sample per round) and light calls (interactive SRQL queries). A heavy
  * call's time adds to its round's total; a light call's latency is kept
  * one by one, per kind of call. Only the call is timed; its output check
  * runs after the clock stops. A call that throws or fails its check counts
  * as failed.
  */
final class Ops {
  var attempted = 0L
  var failed = 0L
  private val notes = mutable.ArrayBuffer.empty[String]
  /** Labels of the calls that threw or failed their check. */
  val failedLabels = mutable.LinkedHashSet.empty[String]

  val heavyRoundS = mutable.ArrayBuffer.empty[Double]
  /** Light-call latencies per kind of call, in the order kinds first ran. */
  private val lightMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private var heavyNs = 0L

  private def call[A](label: => String, body: => A, check: A => Verdict): (Option[A], Long) = {
    attempted += 1
    val t0 = System.nanoTime()
    val out = try Right(body) catch { case NonFatal(e) => Left(e) }
    val ns = System.nanoTime() - t0
    out match {
      case Left(e) =>
        failed += 1
        failedLabels += label
        note(s"$label threw $e")
        (None, ns)
      case Right(a) =>
        check(a) match {
          case Some(reason) =>
            failed += 1
            failedLabels += label
            note(s"$label: $reason")
            (None, ns)
          case None => (Some(a), ns)
        }
    }
  }

  def heavy[A](label: => String)(body: => A)(check: A => Verdict): Option[A] = {
    val (a, ns) = call(label, body, check)
    heavyNs += ns
    a
  }

  def light[A](kind: String, label: => String)(body: => A)(check: A => Verdict): Option[A] = {
    val (a, ns) = call(label, body, check)
    lightMs.getOrElseUpdate(kind, mutable.ArrayBuffer.empty[Double]) += ns / 1e6
    a
  }

  private def lightCalls: Int = lightMs.values.map(_.size).sum

  /** Geometric mean over the kinds of light call of each kind's percentile,
    * so every kind weighs the same whatever its latency and call count.
    */
  private def lightPercentile(p: Double): Double =
    math.exp(Stats.mean(lightMs.values.map(ms => math.log(Stats.percentile(ms.toSeq, p))).toSeq))

  def endRound(): Unit = {
    heavyRoundS += heavyNs / 1e9
    heavyNs = 0L
  }

  private def note(msg: String): Unit = {
    if (notes.size < 20) Console.err.println(s"[perfbench] FAILED $msg")
    notes += msg
  }

  /** Runs whole rounds: at least one, and another only while the mean round
    * time says it will end within `seconds` of the start.
    */
  def rounds(seconds: Double)(round: => Unit): Int = {
    val start = System.nanoTime()
    var n = 0
    var more = true
    while (more) {
      round
      endRound()
      n += 1
      val elapsed = (System.nanoTime() - start) / 1e9
      more = elapsed + elapsed / n <= seconds
    }
    n
  }

  /** The workload-level end-to-end metrics of the timed phase. */
  def endToEnd(rprec: Double): Seq[Metric] = {
    for ((kind, ms) <- lightMs if ms.size < 100)
      Console.err.println(s"[perfbench] only ${ms.size} $kind calls: its p90 has fewer than 10 samples beyond it")
    Seq(
      Metric("heavy_s", Stats.median(heavyRoundS.toSeq), "s"),
      Metric("light_p50_ms", lightPercentile(50), "ms"),
      Metric("light_p90_ms", lightPercentile(90), "ms"),
      Metric("rprec", rprec, "ratio"),
    )
  }

  def summary: String =
    s"rounds=${heavyRoundS.size} heavy_round_s=${heavyRoundS.map(x => f"$x%.3f").mkString(",")} " +
      s"light_calls=$lightCalls attempted=$attempted failed=$failed " +
      lightMs.map { case (k, ms) => f"$k%s p50=${Stats.percentile(ms.toSeq, 50)}%.4f ms" }.mkString("(", ", ", ")")
}
