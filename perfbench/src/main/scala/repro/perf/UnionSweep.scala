package repro.perf

import repro.ekg.Srql

/** Checks that `relate`'s `unionable` sample stands for a full sweep: times
  * SRQL `unionable(table, 10)` on every table of the three lakes once, and
  * prints the mean latency of the full sweep beside that of the sample's
  * tables, per lake and over all calls.
  *
  *     java -Xmx3g -cp "$(cat perfbench/.build/classpath)" repro.perf.UnionSweep
  */
object UnionSweep {
  def main(argv: Array[String]): Unit = {
    val env = Env.setUp(Main.parse(Array("--workload", "relate")), new Trace(false))
    try {
      val relate = new Relate(env)
      relate.warmUp()
      val ms = for ((c, i) <- env.cmdls.zipWithIndex) yield {
        val srql = new Srql(c)
        val sample = relate.unionSample(i).toSet
        c.lake.tables.map(_.name).sorted.map { t =>
          val t0 = System.nanoTime()
          srql.unionable(t, Relate.TopN)
          (sample.contains(t), (System.nanoTime() - t0) / 1e6)
        }
      }
      def line(name: String, xs: Seq[(Boolean, Double)]): String = {
        val s = xs.filter(_._1).map(_._2)
        f"$name%-8s full sweep ${Stats.mean(xs.map(_._2))}%8.2f ms mean over ${xs.size}%3d tables; " +
          f"sample ${Stats.mean(s)}%8.2f ms mean over ${s.size}%2d tables"
      }
      for ((xs, l) <- ms.zip(env.lakes)) println(line(l.name, xs))
      println(line("all", ms.flatten))
    } finally env.spark.stop()
  }
}
