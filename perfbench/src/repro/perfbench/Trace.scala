package repro.perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** In-memory spans of one traced run: name, start, end, parent and run id.
  * Times are epoch nanoseconds so that benchmark spans (`System.nanoTime`)
  * and Spark listener spans (epoch milliseconds) share one clock. Spans are
  * written out once, when the run ends.
  */
final class Tracer(val runId: String) {
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val names = ArrayBuffer[String]()
  private val parents = ArrayBuffer[Int]()
  private val starts = ArrayBuffer[Long]()
  private val ends = ArrayBuffer[Long]()

  /** Record a span timed with `System.nanoTime`; returns its id. */
  def add(name: String, startNano: Long, endNano: Long, parent: Int = -1): Int =
    addEpoch(name, startNano + offsetNs, endNano + offsetNs, parent)

  /** Record a span timed in epoch milliseconds (Spark listener events). */
  def addMs(name: String, startMs: Long, endMs: Long, parent: Int): Int =
    addEpoch(name, startMs * 1000000L, endMs * 1000000L, parent)

  /** Open a span now; `close` sets its end. */
  def open(name: String, parent: Int = -1): Int = { val t = System.nanoTime(); add(name, t, t, parent) }
  def close(id: Int): Unit = ends(id) = System.nanoTime() + offsetNs

  private def addEpoch(name: String, start: Long, end: Long, parent: Int): Int = {
    names += name; parents += parent; starts += start; ends += end
    names.size - 1
  }

  def size: Int = names.size
  def duration(id: Int): Long = ends(id) - starts(id)

  /** Self time of each span: its duration minus the union of its children. */
  def selfTimes: Array[Long] = {
    val self = Array.tabulate(size)(duration)
    (0 until size).filter(parents(_) >= 0).groupBy(parents(_)).foreach { case (p, kids) =>
      var covered = 0L; var reach = starts(p)
      kids.sortBy(starts(_)).foreach { c =>
        val s = math.max(starts(c), reach); val e = math.min(ends(c), ends(p))
        if (e > s) { covered += e - s; reach = e }
      }
      self(p) -= covered
    }
    self
  }

  /** Σ self time of the spans called `name` that descend from `root`. */
  def selfUnder(root: Int, name: String, self: Array[Long]): Long =
    (0 until size).filter(i => names(i) == name && descends(i, root)).map(self(_)).sum

  private def descends(i: Int, root: Int): Boolean = {
    var p = parents(i)
    while (p >= 0 && p != root) p = parents(p)
    p == root
  }

  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfTimes
    val w = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try (0 until size).foreach { i =>
      w.println(s"""{"run": "$runId", "id": $i, "parent": ${parents(i)}, "name": "${names(i)}", """ +
        s""""start_ns": ${starts(i)}, "end_ns": ${ends(i)}, "self_ns": ${self(i)}}""")
    } finally w.close()
  }
}

/** Task and stage records from a `SparkListener` the benchmark registers.
  * Each benchmark action sets the local property [[TaskLog.TagKey]]; stages
  * and tasks are attributed to the action through their job.
  */
final class TaskLog extends SparkListener {
  import TaskLog._

  private val stageTag = new ConcurrentHashMap[Integer, String]()
  private val taskBuf = ArrayBuffer[Task]()
  private val stageBuf = ArrayBuffer[Stage]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).getOrElse("")
    e.stageIds.foreach(id => stageTag.put(id, tag))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m == null) return
    val i = e.taskInfo
    val t = Task(stageTag.getOrDefault(e.stageId, ""), e.stageId, i.partitionId,
      i.launchTime, i.finishTime, m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
      m.resultSerializationTime, m.resultSize, m.shuffleWriteMetrics.bytesWritten,
      m.shuffleReadMetrics.totalBytesRead, m.memoryBytesSpilled + m.diskBytesSpilled)
    taskBuf.synchronized(taskBuf += t)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val s = e.stageInfo
    val st = Stage(stageTag.getOrDefault(s.stageId, ""), s.stageId,
      s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L))
    stageBuf.synchronized(stageBuf += st)
  }

  /** Records of the given actions, once every posted event was delivered. */
  def tasks(sc: SparkContext, tags: Set[String]): Seq[Task] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    taskBuf.synchronized(taskBuf.filter(t => tags(t.tag)).toList)
  }

  def stages(sc: SparkContext, tags: Set[String]): Seq[Stage] = {
    org.apache.spark.PerfbenchBus.drain(sc)
    stageBuf.synchronized(stageBuf.filter(s => tags(s.tag)).toList)
  }
}

object TaskLog {
  val TagKey = "perfbench.action"

  final case class Task(tag: String, stage: Int, partition: Int, launchMs: Long, finishMs: Long,
                        runMs: Long, cpuNs: Long, gcMs: Long, resultSerMs: Long, resultBytes: Long,
                        shuffleWrite: Long, shuffleRead: Long, spill: Long)

  final case class Stage(tag: String, id: Int, submitMs: Long, doneMs: Long)
}
