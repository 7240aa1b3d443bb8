package org.apache.spark

/** The listener bus delivers events asynchronously and its drain call is
  * package-private; tests drain it before reading what a listener saw.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
