package org.apache.spark

/** Waits until Spark has delivered every queued listener event, so counts
  * read afterwards are complete. The listener bus is Spark-private, hence
  * this object's package.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
