package repro.perf

/** `ingest-train-search`: bring every lake online, then search it. Each
  * round rebuilds every lake's `Cmdl` with every index and searches it
  * (`IngestSearch`), then weak-labels it and trains the joint model and
  * searches the joint space (`Train`). Profiling, the indexes, labels and
  * training work; union scoring and join probes stay idle.
  */
final class IngestTrainSearch(env: Env) extends Workload {
  val name = "ingest-train-search"
  val ops = new Ops
  private val ingest = new IngestSearch(env, ops)
  private val train = new Train(env, ops)

  def warmUp(): Unit = { ingest.warmUp(); train.warmUp() }

  def round(): Unit = { ingest.round(); train.round() }

  /** Mean of the solo and the joint-space cross-modal R-precision. */
  def rprec(): Double = {
    val (solo, joint) = (ingest.rprec(), train.rprec())
    Console.err.println(f"[perfbench] rprec: solo $solo%.4f, joint $joint%.4f")
    (solo + joint) / 2
  }
}
