package repro.perf

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is (name, start, end, parent); spans nest by call order on the
  * one client thread. Counters are kept beside them under their own names.
  * A disabled trace runs the body and records nothing, so untraced runs pay
  * one branch per call.
  */
final class Trace(val enabled: Boolean) {
  import Trace._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, Double]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, name, parent, t0, System.nanoTime())
        open = open.tail
      }
    }

  def count(name: String, n: Double = 1.0): Unit =
    if (enabled) counters(name) = counters.getOrElse(name, 0.0) + n

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  /** Durations in nanoseconds of every span with this name. */
  def durations(name: String): Seq[Long] = spans.iterator.filter(_.name == name).map(_.dur).toSeq

  /** Self time per span name prefix up to the first dot (the layer): each
    * span's duration minus the part of it its direct children cover.
    */
  def selfTimeByLayer: Map[String, Long] = {
    val childTime = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    for (s <- spans if s.parent >= 0) childTime(s.parent) += s.dur
    spans.groupBy(s => s.name.takeWhile(_ != '.'))
      .view.mapValues(_.map(s => math.max(0L, s.dur - childTime(s.id))).sum).toMap
  }

  /** Writes every span and counter as JSON lines. */
  def writeTo(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try {
      for (s <- spans)
        w.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"start_ns":${s.start},"end_ns":${s.end}}""")
      for ((k, v) <- counters) w.println(s"""{"counter":"$k","value":$v}""")
    } finally w.close()
  }
}

object Trace {
  final case class Span(id: Int, name: String, parent: Int, start: Long, end: Long) {
    def dur: Long = end - start
  }
}
