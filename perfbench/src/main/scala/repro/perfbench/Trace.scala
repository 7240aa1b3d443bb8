package repro.perfbench

import org.apache.spark.Success
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}

import scala.collection.mutable.ArrayBuffer

/** In-memory spans, recorded by the benchmark around each call into a layer.
  * Nothing is written until [[Main]] dumps them at the end of the run.
  */
final class Tracer {
  final case class Span(id: Int, parent: Int, name: String, task: Int, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[A](name: String, task: Int = -1)(body: => A): A = {
    val id = spans.length
    spans += Span(id, open.headOption.getOrElse(-1), name, task, System.nanoTime(), 0L)
    open = id :: open
    try body
    finally {
      spans(id) = spans(id).copy(endNs = System.nanoTime())
      open = open.tail
    }
  }

  /** Summed duration of every span with this name, in seconds. */
  def total(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum

  /** Per name: count, total seconds and self seconds (total minus the time
    * covered by direct children).
    */
  def summary: Map[String, Map[String, Any]] = {
    val childTime = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.seconds).sum }
    spans.groupBy(_.name).map { case (name, ss) =>
      name -> Map(
        "count" -> ss.length,
        "total_s" -> ss.map(_.seconds).sum,
        "self_s" -> ss.map(s => s.seconds - childTime.getOrElse(s.id, 0.0)).sum)
    }
  }

  def records: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "task" -> s.task,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)
  }
}

/** Spark task, stage and job totals since the last [[reset]]. Registered only
  * in traced runs.
  */
final class TaskStats extends SparkListener {
  var tasks, failed, jobs, stages = 0L
  var runMs, cpuNs, gcMs, shuffleBytes, shuffleRecords, resultBytes = 0L

  def reset(): Unit = synchronized {
    tasks = 0; failed = 0; jobs = 0; stages = 0
    runMs = 0; cpuNs = 0; gcMs = 0; shuffleBytes = 0; shuffleRecords = 0; resultBytes = 0
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.reason != Success) failed += 1
    val m = e.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      resultBytes += m.resultSize
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }
}

/** Minimal JSON writer for the benchmark's own output (no dependencies). */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => quote(k.toString) -> apply(x) }.sortBy(_._1)
        .map { case (k, x) => s"$k:$x" }.mkString("{", ",", "}")
    case a: Array[_] => apply(a.toSeq)
    case s: Iterable[_] => s.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
