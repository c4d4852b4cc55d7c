package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.SynthData
import repro.core.{ReqSketch, ReqSpark}

/** `spark_column`: `ReqSpark.sketchColumn` over `l_extendedprice` of a
  * cached TPC-H-lite `lineitem` (SF 0.5, 3M rows, repartitioned to 64 and
  * cached during set-up), `local[4]`, ending with 8 quantiles read from the
  * returned sketch. Each partition sketch sees about 47k items, so the
  * compactor is busy. The depth-2 `treeReduce` shuffles the 64 partition
  * sketches into 8 partitions, merges them there and sends 8 task results
  * to the driver, which merges those: large merges, sketch serialization
  * and shuffle sit on the critical path.
  */
final class SparkColumn(o: Opts) {
  import Conf._
  import SparkColumn._

  private val spark = SparkSession.builder()
    .master(s"local[$Cores]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.ui.showConsoleProgress", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", o.tmp.getPath)
    .config("spark.sql.warehouse.dir", new java.io.File(o.tmp, "warehouse").getPath)
    .getOrCreate()
  private val sc = spark.sparkContext
  private val log = new TaskLog
  sc.addSparkListener(log)

  private var df: DataFrame = _
  private var n = 0L
  /** Rows per cached partition, to turn task time into time per item. */
  private var partSize: Array[Long] = _
  /** Prices in partition order, and sorted. */
  private var prices: Array[Double] = _
  private var sorted: Array[Double] = _

  /** One set-up; returns (generate and cache, read the cached column back,
    * truth) nanoseconds.
    */
  private def setupOnce(): (Long, Long, Long) = {
    if (df != null) df.unpersist(blocking = true)
    val t0 = System.nanoTime()
    df = SynthData.lineitem(spark, Sf, o.seed)
      .select(col("l_extendedprice").cast("double").as("price"))
      .repartition(Partitions)
      .cache()
    n = df.count()
    val t1 = System.nanoTime()
    val parts = df.rdd.mapPartitions(column).collect()
    val t2 = System.nanoTime()
    require(parts.length == Partitions, s"${parts.length} cached partitions")
    partSize = parts.map(_.length.toLong)
    prices = parts.flatten
    require(prices.length == n, s"collected ${prices.length} of $n rows")
    sorted = prices.clone()
    java.util.Arrays.sort(sorted)
    df.createOrReplaceTempView("lineitem")
    (t1 - t0, t2 - t1, System.nanoTime() - t2)
  }

  /** Run one benchmark action under `tag`; returns (result, wall ns). */
  private def action[T](tag: String, tr: Tracer, parent: Int)(body: => T): (T, Long) = {
    sc.setLocalProperty(TaskLog.TagKey, tag)
    val t0 = System.nanoTime()
    val out = body
    val t1 = System.nanoTime()
    sc.setLocalProperty(TaskLog.TagKey, null)
    if (tr != null) spans(tag) = tr.add("sketch_column", t0, t1, parent)
    (out, t1 - t0)
  }
  /** Span id of each traced action. */
  private val spans = scala.collection.mutable.Map[String, Int]()

  private final class Job(val tag: String, val wallNs: Long, val sketch: ReqSketch) {
    /** Per read round, the time of each of its `quantile` and `rank` calls, µs. */
    val quantileUs = ArrayBuffer[Array[Double]]()
    val rankUs = ArrayBuffer[Array[Double]]()
  }

  private def job(tag: String, seed: Long, c: Checker, tr: Tracer, parent: Int): Job = {
    val ((sk, qs), ns) = action(tag, tr, parent) {
      val sk = ReqSpark.sketchColumn(df, "price", Eps, Delta, Profile, seed, depth = 2)
      (sk, Phis.map(sk.quantile))
    }
    c.op(Structure.weightOk(sk, n))
    Phis.indices.foreach(i => Truth.checkQuantile(c, sorted, Phis(i), qs(i)))
    new Job(tag, ns, sk)
  }

  /** Identical jobs (one sketch seed) until `seconds` have elapsed (at
    * least `MinJobs`), or exactly `count`, each followed by its read rounds.
    */
  private def measure(prefix: String, count: Int, c: Checker, tr: Tracer, parent: Int): Seq[Job] = {
    val out = ArrayBuffer[Job]()
    val start = System.nanoTime()
    while (if (count > 0) out.size < count else out.size < MinJobs || System.nanoTime() - start < o.seconds * 1e9) {
      val i = out.size
      out += job(s"$prefix$i", sketchSeed(o.seed, JobSeed), c, tr, parent)
      reads(out.last, c, tr, parent)
    }
    out.toSeq
  }

  /** Reads of a job's result sketch on the driver thread: `ReadRounds`
    * rounds of 8 `quantile` calls at `Phis`, then as many rounds of 8 `rank`
    * calls at values of geometric exact rank, each call timed and its answer
    * checked. They read a copy made with `toBytes`/`fromBytes`: the boxed
    * items of the returned sketch sit in the order in which the merges of
    * task results that finished in a random order left them, which moved
    * `rank` times by up to 30% between runs; a copy's items are allocated
    * level by level. The heap is settled after the copy, for the same reason.
    */
  private def reads(j: Job, c: Checker, tr: Tracer, parent: Int): Unit = {
    val s = ReqSketch.fromBytes(ReqSketch.toBytes(j.sketch))
    c.op(Structure.weightOk(s, n))
    val g = sorted
    settle()
    val ys = geometricRanks(g.length).map(x => g((x - 1).toInt))
    def timed(t: Array[Double], k: Int, name: String)(call: => Unit): Unit = {
      val t0 = System.nanoTime()
      call
      val t1 = System.nanoTime()
      t(k) = (t1 - t0) / 1e3
      if (tr != null) tr.add(name, t0, t1, parent)
    }
    for (_ <- 0 until ReadRounds) {
      val q = new Array[Double](Phis.length)
      for (k <- Phis.indices) {
        var y = Double.NaN
        timed(q, k, "quantile") { y = try s.quantile(Phis(k)) catch { case NonFatal(_) => Double.NaN } }
        Truth.checkQuantile(c, g, Phis(k), y)
      }
      j.quantileUs += q
    }
    for (_ <- 0 until ReadRounds) {
      val rk = new Array[Double](ys.length)
      for (k <- ys.indices) {
        var est = -1L
        timed(rk, k, "rank") { est = try s.rank(ys(k)) catch { case NonFatal(_) => -1L } }
        Truth.checkRank(c, g, ys(k), est)
      }
      j.rankUs += rk
    }
  }

  def run(): Report = try runAll() finally spark.stop()

  private def runAll(): Report = {
    val r = new Report
    val gen = new Samples; val cache = new Samples; val truth = new Samples
    val total = new Samples
    for (_ <- 0 until SetupReps) {
      val (g, ca, t) = setupOnce()
      gen += g / 1e9; cache += ca / 1e9; truth += t / 1e9; total += (g + ca + t) / 1e9
    }
    val w0 = System.nanoTime()
    val warm = new Checker(Eps)
    var i = 0
    while (i == 0 || System.nanoTime() - w0 < WarmupSeconds * 1e9) {
      reads(job(s"warmup$i", sketchSeed(o.seed, 50 + i), warm, null, -1), warm, null, -1)
      i += 1
    }
    val warmupS = Stats.seconds(System.nanoTime() - w0)

    val c = new Checker(Eps)
    settle()
    val jobs = measure("m", 0, c, null, -1)

    r.put("setup_s", total.median, "s", SetupReps)
    // The fastest of the identical jobs; each partition's scan task and
    // each read call at its fastest repetition.
    r.put("items_per_s", n / Stats.seconds(jobs.map(_.wallNs).min), "items/s", jobs.size)
    r.timing("update_ns", "ns/item", Best.of(jobs.map(j => scanNsPerItem(j.tag))), 0.90,
      Partitions.toLong * jobs.size)
    val rounds = jobs.size.toLong * ReadRounds
    r.timing("quantile_us", "us", Best.of(jobs.flatMap(_.quantileUs)), 0.99, Phis.length * rounds)
    r.timing("rank_us", "us", Best.of(jobs.flatMap(_.rankUs)), 0.99, Phis.length * rounds)
    r.put("sketch_bytes", Stats.median(jobs.map(j => ReqSketch.toBytes(j.sketch).length.toDouble).toArray),
      "B", jobs.size)
    r.put("retained_items", Stats.median(jobs.map(_.sketch.itemsStored.toDouble).toArray), "items", jobs.size)

    if (!o.trace) { r.attempted = c.attempted; r.failed = c.failed; return r }

    settle()
    val tr = new Tracer(s"spark_column-seed${o.seed}")
    val window = tr.open("window")
    val traced = measure("t", jobs.size, c, tr, window)
    tr.close(window)
    val last = traced.last.sketch
    r.attempted = c.attempted; r.failed = c.failed

    val t = new Report
    Structure.report(t, Seq(last))
    Probes.replay(t, prices, last, o.seed)
    val self = tr.selfTimes
    val windowNs = tr.duration(window).toDouble
    val jobNs = traced.map(j => tr.duration(spans(j.tag))).sum.toDouble
    t.put("sketch.update_share", jobNs / windowNs, "ratio")
    t.put("sketch.quantile_share", tr.selfUnder(window, "quantile", self) / windowNs, "ratio")
    t.put("sketch.rank_share", tr.selfUnder(window, "rank", self) / windowNs, "ratio")
    Probes.merge64(t, prices, o.seed)
    Probes.mergeSmall(t, prices, o.seed)
    Probes.serde(t, last)
    addSparkSpans(tr, traced.map(_.tag))
    sparkMetrics(t, tr, traced.map(_.tag).toSet)
    t.put("setup.gen_s", gen.median, "s", SetupReps)
    t.put("setup.cache_s", cache.median, "s", SetupReps)
    t.put("setup.truth_s", truth.median, "s", SetupReps)
    t.put("setup.warmup_s", warmupS, "s")
    t.put("quality.tail_rel_err", c.tailErr, "ratio", c.attempted)
    t.put("quality.max_rel_err", c.maxErr, "ratio", c.attempted)
    t.put("quality.weight_drift", math.abs(last.totalWeight - last.n).toDouble / last.n, "ratio")
    NotRun.put(t, NotRun.DsReq)
    refs(t)
    val untracedNs = jobs.map(_.wallNs).sum.toDouble
    t.put("trace.overhead_pct", 100 * (traced.map(_.wallNs).sum / untracedNs - 1), "%")
    t.put("trace.span_cover_pct", 100 * jobNs / untracedNs, "%")
    tr.write(new java.io.File(o.out, s"trace/spark_column-seed${o.seed}.jsonl"))
    t.attempted = r.attempted; t.failed = r.failed
    t
  }

  /** Per cached partition, the CPU time over its rows of the job's task
    * that scans it and writes the partial sketches to the shuffle.
    */
  private def scanNsPerItem(tag: String): Array[Double] = {
    val a = Array.fill(Partitions)(Double.NaN)
    log.tasks(sc, Set(tag)).foreach { t =>
      if (t.shuffleRead == 0 && t.shuffleWrite > 0) a(t.partition) = t.cpuNs.toDouble / partSize(t.partition)
    }
    require(!a.exists(_.isNaN), s"job $tag: a cached partition has no scan task")
    a
  }

  /** spark.* per job of `tags`, whose job spans (with their stage spans
    * as children) are in `tr`.
    */
  private def sparkMetrics(t: Report, tr: Tracer, tags: Set[String]): Unit = {
    val tasks = log.tasks(sc, tags); val stages = log.stages(sc, tags)
    val jobs = tags.size.toDouble
    val self = tr.selfTimes
    val runS = tasks.map(_.runMs).sum / 1e3
    val wallS = tags.toSeq.map(g => tr.duration(spans(g))).sum / 1e9
    val taskS = new Samples; tasks.foreach(x => taskS += x.runMs / 1e3)
    def stageS(p: Seq[TaskLog.Task] => Boolean) = stages.filter { st =>
      p(tasks.filter(_.stage == st.id))
    }.map(st => (st.doneMs - st.submitMs) / 1e3).sum / jobs
    t.put("spark.tasks", tasks.size / jobs, "count")
    t.put("spark.task_run_s", runS / jobs, "s")
    t.put("spark.task_cpu_s", tasks.map(_.cpuNs).sum / 1e9 / jobs, "s")
    t.put("spark.task_gc_s", tasks.map(_.gcMs).sum / 1e3 / jobs, "s")
    t.put("spark.task_s.p50", taskS.median, "s", taskS.size)
    t.put("spark.task_s.max", taskS.max, "s", taskS.size)
    t.put("spark.busy_frac", runS / (wallS * Cores), "ratio")
    t.put("spark.result_ser_s", tasks.map(_.resultSerMs).sum / 1e3 / jobs, "s")
    t.put("spark.result_bytes", tasks.map(_.resultBytes).sum / jobs, "B")
    t.put("spark.shuffle_write_bytes", tasks.map(_.shuffleWrite).sum / jobs, "B")
    t.put("spark.shuffle_read_bytes", tasks.map(_.shuffleRead).sum / jobs, "B")
    t.put("spark.spill_bytes", tasks.map(_.spill).sum / jobs, "B")
    t.put("spark.stage.partial_s", stageS(_.exists(_.shuffleWrite > 0)), "s")
    t.put("spark.stage.final_s", stageS(_.exists(_.shuffleRead > 0)), "s")
    t.put("spark.driver_s", tags.toSeq.map(g => self(spans(g))).sum / 1e9 / jobs, "s")
  }

  private def addSparkSpans(tr: Tracer, tags: Seq[String]): Unit = {
    val tagSet = tags.toSet
    val stageSpan = log.stages(sc, tagSet).map { s =>
      s.id -> tr.addMs(s"stage ${s.id}", s.submitMs, s.doneMs, spans(s.tag))
    }.toMap
    log.tasks(sc, tagSet).foreach { t =>
      tr.addMs(s"task p${t.partition}", t.launchMs, t.finishMs, stageSpan.getOrElse(t.stage, spans(t.tag)))
    }
  }

  /** ref.percentile_approx.*, ref.kll_sketch_agg.*: Spark's built-in
    * approximate quantiles on the same column, one warm and one timed run.
    */
  private def refs(t: Report): Unit = {
    val queries = Seq(
      "percentile_approx" -> s"SELECT percentile_approx(price, array(${Phis.mkString(", ")}), 10000) FROM lineitem",
      "kll_sketch_agg" ->
        (s"SELECT ${Phis.map(p => s"kll_sketch_get_quantile_double(sk, $p)").mkString(", ")} " +
         "FROM (SELECT kll_sketch_agg_double(price) AS sk FROM lineitem)"))
    for ((name, sql) <- queries) {
      spark.sql(sql).collect()
      val t0 = System.nanoTime()
      val row = spark.sql(sql).collect().head
      val secs = Stats.seconds(System.nanoTime() - t0)
      val answers = if (name == "kll_sketch_agg") Phis.indices.map(row.getDouble) else row.getSeq[Double](0)
      val c = new Checker(Eps)
      Phis.indices.foreach(i => Truth.checkQuantile(c, sorted, Phis(i), answers(i)))
      t.put(s"ref.$name.items_per_s", n / secs, "items/s")
      t.put(s"ref.$name.tail_rel_err", c.tailErr, "ratio", c.attempted)
    }
  }
}

object SparkColumn {
  val Sf = 0.5
  val Partitions = 64
  val MinJobs = 3
  /** Sketch seed index of every measured job. */
  val JobSeed = 100
  /** Read rounds after each job, about 0.15 s on the 51k-item sketch. */
  val ReadRounds = 8

  /** The prices of each partition, in partition order. */
  private val column: Iterator[Row] => Iterator[Array[Double]] = { it =>
    val p = ArrayBuffer[Double]()
    it.foreach(r => p += r.getDouble(0))
    Iterator.single(p.toArray)
  }
}
