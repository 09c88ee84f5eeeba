package repro.perf

import java.io.File
import java.lang.management.ManagementFactory
import java.lang.ref.Reference

import repro.perf.Stats.Metric

/** One workload: whole rounds of heavy and light calls over the three lakes.
  *
  * `round` runs one round over the three lakes. Untraced, it calls the
  * public API (`Cmdl`, `Srql`); traced, it makes the same calls one layer at
  * a time inside spans.
  */
trait Workload {
  def name: String
  def ops: Ops
  /** Short untraced pass that loads and compiles the code the rounds run. */
  def warmUp(): Unit
  def round(): Unit
  /** The workload's answer quality, from the outputs of the timed phase. */
  def rprec(): Double
}

object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, lakeSeeds: (Long, Long, Long))

  val Workloads: Seq[String] = Seq("ingest-train-search", "relate")

  /** Calls that fail in every round because of a fault in the program, on
    * the default lakes: SRQL `pkfk` returns, for these two ML-Open tables,
    * each other, although they share no value (see README, Known failure).
    */
  val KnownFailures: Set[String] = Set("pkfk(mlss_t6_3)", "pkfk(mlms_t20_0)")

  val Usage: String =
    "usage: --workload <" + Workloads.mkString("|") + "> [--seed N] [--seconds S] [--trace 0|1] " +
      "[--lake-seeds 101,202,303]"

  def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0 && argv.grouped(2).forall(_.head.startsWith("--")), Usage)
    val kv = argv.grouped(2).map(p => p(0).drop(2) -> p(1)).toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "lake-seeds")
    require(unknown.isEmpty, s"unknown option ${unknown.mkString(", ")}; $Usage")
    val workload = kv.getOrElse("workload", "")
    require(Workloads.contains(workload), s"unknown workload '$workload'; $Usage")
    val lakeSeeds = kv.getOrElse("lake-seeds", "101,202,303").split(",").map(_.trim.toLong)
    require(lakeSeeds.length == 3, s"--lake-seeds takes three seeds; $Usage")
    val seconds = kv.getOrElse("seconds", "15").toDouble
    require(seconds > 0, s"--seconds must be positive; $Usage")
    Args(workload, kv.getOrElse("seed", "1").toLong, seconds,
      kv.getOrElse("trace", "0") match {
        case "0" => false
        case "1" => true
        case other => throw new IllegalArgumentException(s"--trace takes 0 or 1, not $other")
      },
      (lakeSeeds(0), lakeSeeds(1), lakeSeeds(2)))
  }

  def make(name: String, env: Env): Workload = name match {
    case "ingest-train-search" => new IngestTrainSearch(env)
    case "relate"              => new Relate(env)
  }

  def main(argv: Array[String]): Unit = {
    val args =
      try parse(argv)
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(e.getMessage)
          sys.exit(2)
      }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val trace = new Trace(args.trace)
    val env = Env.setUp(args, trace)
    var result = ""
    try {
      val workload = make(args.workload, env)
      val w0 = System.nanoTime()
      workload.warmUp()
      Console.err.println(f"[perfbench] set-up: warm-up ${(System.nanoTime() - w0) / 1e9}%.2f s")
      val setupS = (System.currentTimeMillis() - jvmStartMs) / 1000.0
      System.gc()
      val gc0 = Jvm.gcMillis()
      val t0 = System.nanoTime()
      workload.ops.rounds(args.seconds)(workload.round())
      val timedS = (System.nanoTime() - t0) / 1e9
      val gcMs = (Jvm.gcMillis() - gc0).toDouble
      val rprec = workload.rprec()
      val endToEnd = workload.ops.endToEnd(rprec)
      Console.err.println(f"[perfbench] ${workload.name}: timed ${timedS}%.2f s, ${workload.ops.summary}")
      val heapMb = Jvm.heapMbAfterGc()
      Reference.reachabilityFence(workload)
      val metrics =
        if (!args.trace) Metric("setup_s", setupS, "s") +: Metric("heap_mb", heapMb, "MB") +: endToEnd
        else {
          Console.err.println("[perfbench] traced end-to-end figures: " +
            endToEnd.map(m => s"${m.name}=${m.value}").mkString(" "))
          val file = new File(sys.props.getOrElse("perfbench.tmp", "perfbench/.run"),
            s"trace-${args.workload}-seed${args.seed}.jsonl")
          trace.writeTo(file)
          Console.err.println(s"[perfbench] spans written to $file")
          Layers.metrics(trace, gcMs)
        }
      val ops = workload.ops
      // A call whose output check fails counts as failed. `correct` also
      // turns false on any failed call other than the known faults, and on
      // an R-precision outside (0, 1].
      val unexpected = ops.failedLabels -- KnownFailures
      if (unexpected.nonEmpty) Console.err.println(s"[perfbench] unexpected failures: ${unexpected.mkString(", ")}")
      result = Stats.resultLine(unexpected.isEmpty && rprec > 0 && rprec <= 1, ops.attempted, ops.failed, metrics)
    } finally env.spark.stop()
    println(result)
  }
}
