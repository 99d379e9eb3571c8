package org.apache.spark

/** Waits until every queued listener event has been delivered. Spark keeps
  * the listener bus private to its own packages, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
