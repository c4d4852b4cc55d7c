package org.apache.spark

/** Waits for Spark's listener bus to deliver every posted event, so the
  * benchmark's listener has seen all tasks of the actions it just ran. The
  * bus is package-private to Spark, hence this package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
