package org.apache.spark

/** The listener bus delivers events asynchronously and its drain call is
  * package-private; the benchmark drains it before reading [[repro.perfbench.TaskStats]].
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
