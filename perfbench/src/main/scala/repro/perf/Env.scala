package repro.perf

import java.io.File
import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.core.Cmdl
import repro.lake.{Lake, LakeGen}
import repro.profile.Profiler

/** Everything set up before the first timed call: the Spark session, the
  * three bench-scale lakes with their ground truth, and one cold-profiled
  * `Cmdl` per lake.
  */
final class Env(
    val spark: SparkSession,
    val lakes: Seq[Lake],
    var cmdls: Seq[Cmdl],
    val rnd: Random,
    val trace: Trace,
)

object Env {

  /** Bench scale of every lake (the scale Tables 1–6 are reported at). */
  val Scale = 1.0

  /** Spark worker threads: a fixed 4, fewer only on a machine with fewer cores. */
  def sparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def setUp(args: Main.Args, trace: Trace): Env = {
    val t0 = System.nanoTime()
    val tmp = new File(sys.props.getOrElse("perfbench.tmp", "perfbench/.run")).getAbsoluteFile
    tmp.mkdirs()
    val spark = SparkSession.builder()
      .master(s"local[$sparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", tmp.getPath)
      .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").getPath)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val t1 = System.nanoTime()
    val (s1, s2, s3) = args.lakeSeeds
    val lakes = Seq(() => LakeGen.pharma(Scale, s1), () => LakeGen.ukOpen(Scale, s2), () => LakeGen.mlOpen(Scale, s3))
      .map(make => trace.span("lake.gen")(make()))
    val t2 = System.nanoTime()
    // The first profiling of each lake is cold: it pays Spark's code
    // generation and the JIT. The traced run times that profiling on its own.
    val cmdls = lakes.map { l =>
      if (trace.enabled) trace.span("profile.cold") {
        Profiler.profileColumns(spark, l.rawColumns)
        Profiler.profileDocs(spark, l.docs)
      }
      new Cmdl(spark, l)
    }
    val t3 = System.nanoTime()
    Console.err.println(f"[perfbench] set-up: spark ${(t1 - t0) / 1e9}%.2f s, lakes ${(t2 - t1) / 1e9}%.2f s, " +
      f"cold cmdls ${(t3 - t2) / 1e9}%.2f s")
    new Env(spark, lakes, cmdls, new Random(args.seed), trace)
  }
}

/** JVM-wide figures read through the management beans. */
object Jvm {
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap in use after a full collection, in MB. */
  def heapMbAfterGc(): Double = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
