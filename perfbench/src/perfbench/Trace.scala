package perfbench

import scala.collection.mutable

/** One traced interval. Times are nanoseconds on the `System.nanoTime` clock;
  * `parent` is −1 for a root span.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)

/** In-memory span recorder for the traced run. Spans wrap the benchmark's
  * calls into the program; Spark task and micro-batch events are attached
  * afterwards as children of the span that was open when they happened.
  * While inactive, `span` only runs its body.
  */
final class Tracer(var active: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  /** Offset turning epoch milliseconds (Spark's event clock) into nanoTime. */
  private val epochToNano: Long = System.nanoTime() - System.currentTimeMillis() * 1000000L

  def span[A](name: String)(body: => A): A =
    if (!active) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      open = (id, name, System.nanoTime()) :: open
      try body
      finally {
        val (_, _, start) = open.head
        open = open.tail
        spans += Span(id, parent, name, start, System.nanoTime())
      }
    }

  def toNano(epochMs: Long): Long = epochMs * 1000000L + epochToNano

  /** Attach an event reported in epoch milliseconds (a Spark task or
    * micro-batch) below the innermost span of another name that covers its
    * start: a task lands in its micro-batch, a micro-batch in its run call.
    */
  def attach(name: String, startEpochMs: Long, endEpochMs: Long): Unit =
    if (active) {
      val s = toNano(startEpochMs)
      val parent = spans.filter(p => p.name != name && p.startNs <= s && s <= p.endNs)
        .minByOption(p => p.endNs - p.startNs).map(_.id).getOrElse(-1)
      spans += Span(nextId, parent, name, s, toNano(endEpochMs)); nextId += 1
    }

  /** Per span name: Σ self time (duration minus the part its children cover). */
  def selfSeconds: Map[String, Double] = {
    val children = spans.groupBy(_.parent)
    spans.groupBy(_.name).map { case (name, ss) =>
      name -> ss.map { s =>
        val kids = children.getOrElse(s.id, Nil).map(k => (k.startNs, k.endNs)).toSeq
        (s.endNs - s.startNs - Stats.coveredLength(kids, s.startNs, s.endNs)) / 1e9
      }.sum
    }
  }

  def toJson: String =
    spans.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }.mkString("[\n", ",\n", "\n]")
}

/** Minimal JSON writing for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
