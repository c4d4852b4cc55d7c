package repro.perfbench

import scala.collection.mutable

import repro.core.{ParamProfile, Practical, ReqSketch, ReqSpark}

/** Settings every workload shares. The sketch parameters are the ones the
  * paper's tables and the repository's re-anchor measurements use.
  */
object Conf {
  val Eps = 0.01
  val Delta = 0.05
  val Profile: ParamProfile = Practical
  /** Threads: `local[4]` for Spark, one thread for the local workload. */
  val Cores = 4
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3
  /** Warm-up before measuring: the first pass runs 15–20% slower locally
    * and the first Spark query up to 2× slower.
    */
  val WarmupSeconds = 3.0
  /** Tail-heavy quantile probes. */
  val Phis: Array[Double] = Array(1e-4, 1e-3, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999)

  /** Explicit nonzero sketch seed for stream `i` of a run (seed 0 would draw
    * entropy and make retained items and bytes wander between runs).
    */
  def sketchSeed(runSeed: Long, i: Int): Long = ReqSpark.mixSeed(runSeed, i)

  /** Collect and compact the heap before a measured phase, so that the
    * boxed items a phase reads do not sit wherever earlier collections
    * happened to leave them; their layout moved query times between runs.
    */
  def settle(): Unit = System.gc()

  def newSketch(seed: Long): ReqSketch = ReqSketch(Eps, Delta, Profile, seed)

  /** `round(n^(j/7))`, j = 0..7: ranks 1 … n on a geometric grid. */
  def geometricRanks(n: Long): Array[Long] =
    Array.tabulate(8)(j => math.max(1L, math.min(n, math.round(math.pow(n.toDouble, j / 7.0)))))
}

final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      out: java.io.File, tmp: java.io.File)

object Opts {
  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      new java.io.File(get("out")), new java.io.File(get("tmp")))
  }
}

/** A growable array of samples. */
final class Samples {
  private var a = new Array[Double](64)
  private var len = 0
  def +=(x: Double): Unit = {
    if (len == a.length) a = java.util.Arrays.copyOf(a, len * 2)
    a(len) = x; len += 1
  }
  def size: Int = len
  def sum: Double = { var s = 0.0; var i = 0; while (i < len) { s += a(i); i += 1 }; s }
  def toArray: Array[Double] = java.util.Arrays.copyOf(a, len)
  def pct(p: Double): Double = Stats.pct(toArray, p)
  def median: Double = Stats.median(toArray)
  def max: Double = pct(1.0)
}

/** Each timed piece of repeated identical work at its fastest repetition.
  * Other tenants of a shared host add delay to some repetitions of a piece
  * and never take time away, so the minimum over repetitions is the
  * steadiest estimate of the piece's own cost; medians and percentiles are
  * then taken over the pieces.
  */
object Best {
  /** `reps(r)(k)`: time of piece k in repetition r. */
  def of(reps: Seq[Array[Double]]): Samples = {
    require(reps.nonEmpty && reps.forall(_.length == reps.head.length), "ragged repetitions")
    val s = new Samples
    var k = 0
    while (k < reps.head.length) {
      var m = Double.PositiveInfinity
      reps.foreach(a => m = math.min(m, a(k)))
      s += m; k += 1
    }
    s
  }
}

object Stats {
  /** Nearest-rank percentile: p = 0.99 over 1,024 samples leaves 10 above it. */
  def pct(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.clone(); java.util.Arrays.sort(s)
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }
  /** The middle value, or the mean of the two middle values. */
  def median(xs: Array[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.clone(); java.util.Arrays.sort(s)
    (s((s.length - 1) / 2) + s(s.length / 2)) / 2
  }
  def seconds(ns: Long): Double = ns / 1e9
}

/** Metrics of one run, in print order, with the operation counts. */
final class Report {
  private final case class M(value: Double, unit: String, samples: Long)
  private val ms = mutable.LinkedHashMap[String, M]()
  var attempted = 0L
  var failed = 0L

  def put(name: String, value: Double, unit: String, samples: Long = 1): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    ms(name) = M(value, unit, samples)
  }

  /** A timing: the median and percentile `hi` of `s`, with `samples` timed
    * executions behind them (default: one per sample).
    */
  def timing(name: String, unit: String, s: Samples, hi: Double, samples: Long = -1): Unit = {
    val n = if (samples < 0) s.size.toLong else samples
    put(s"$name.p50", s.median, unit, n)
    put(s"$name.p${math.round(hi * 100)}", s.pct(hi), unit, n)
  }

  def table(title: String): String = {
    val b = new StringBuilder(s"# $title: attempted=$attempted failed=$failed\n")
    ms.foreach { case (k, m) => b ++= f"#   $k%-34s ${m.value}%16.6g ${m.unit}%-10s n=${m.samples}%n" }
    b.toString
  }

  def json: String = {
    val body = ms.map { case (k, m) =>
      s""""$k": {"value": ${java.lang.Double.toString(m.value)}, "unit": "${m.unit}"}"""
    }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}

/** Scores sketch answers against exact truth (Theorem 1's event) and counts
  * attempted and failed operations.
  */
final class Checker(eps: Double) {
  var attempted = 0L
  var failed = 0L
  var tailErr = 0.0
  var maxErr = 0.0

  def op(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  /** A rank estimate fails when |R̂(y) − R(y)| > ε·R(y). */
  def rank(est: Long, truth: Long, n: Long): Unit = {
    val err = math.abs(est - truth).toDouble
    note(err / math.max(1L, truth), truth, n)
    op(err <= eps * truth)
  }

  /** A φ-quantile answer y with target rank t fails when the estimate at y
    * or just below it must be off by more than ε: R(y)·(1+ε) < t, or
    * R(<y)·(1−ε) ≥ t. `less` = |{x < y}|, `leq` = |{x ≤ y}|.
    */
  def quantile(y: Double, target: Long, less: Long, leq: Long, n: Long): Unit = {
    if (y.isNaN) { op(false); return }
    val rel =
      if (target <= less) (less + 1 - target).toDouble / target
      else if (target > leq) (target - leq).toDouble / target
      else 0.0
    note(rel, target, n)
    op(leq * (1 + eps) >= target && less * (1 - eps) < target)
  }

  private def note(rel: Double, r: Long, n: Long): Unit = {
    maxErr = math.max(maxErr, rel)
    if (r <= n / 64) tailErr = math.max(tailErr, rel)
  }
}

/** Exact ranks within a sorted array. */
object Truth {
  /** |{x ≤ y}|. */
  def leq(sorted: Array[Double], y: Double): Long = bound(sorted, y, strict = false)
  /** |{x < y}|. */
  def less(sorted: Array[Double], y: Double): Long = bound(sorted, y, strict = true)

  private def bound(a: Array[Double], y: Double, strict: Boolean): Long = {
    var lo = 0; var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (if (strict) a(mid) < y else a(mid) <= y) lo = mid + 1 else hi = mid
    }
    lo.toLong
  }

  def target(phi: Double, n: Long): Long = math.max(1L, math.ceil(phi * n).toLong)

  /** Check `sk.quantile(phi)` = `y` against a sorted array of the n items. */
  def checkQuantile(c: Checker, sorted: Array[Double], phi: Double, y: Double): Unit =
    c.quantile(y, target(phi, sorted.length), less(sorted, y), leq(sorted, y), sorted.length)

  def checkRank(c: Checker, sorted: Array[Double], y: Double, est: Long): Unit =
    c.rank(est, leq(sorted, y), sorted.length)
}

/** Per-layer metrics of layers a workload does not run. The benchmark's
  * result format requires a traced run of every workload to print every
  * per-layer metric `BENCHMARK.json` declares (`run.py` refuses a result
  * without one), so these read 0 with a sample count of 0.
  */
object NotRun {
  val Spark: Seq[(String, String)] = Seq(
    "spark.tasks" -> "count", "spark.task_run_s" -> "s", "spark.task_cpu_s" -> "s",
    "spark.task_gc_s" -> "s", "spark.task_s.p50" -> "s", "spark.task_s.max" -> "s",
    "spark.busy_frac" -> "ratio", "spark.result_ser_s" -> "s", "spark.result_bytes" -> "B",
    "spark.shuffle_write_bytes" -> "B", "spark.shuffle_read_bytes" -> "B", "spark.spill_bytes" -> "B",
    "spark.stage.partial_s" -> "s", "spark.stage.final_s" -> "s", "spark.driver_s" -> "s",
    "setup.cache_s" -> "s")
  val SparkRefs: Seq[(String, String)] = Seq(
    "ref.percentile_approx.items_per_s" -> "items/s", "ref.percentile_approx.tail_rel_err" -> "ratio",
    "ref.kll_sketch_agg.items_per_s" -> "items/s", "ref.kll_sketch_agg.tail_rel_err" -> "ratio")
  val DsReq: Seq[(String, String)] = Seq(
    "ref.ds_req.update_ns" -> "ns/item", "ref.ds_req.quantile_us" -> "us",
    "ref.ds_req.bytes" -> "B", "ref.ds_req.tail_rel_err" -> "ratio")

  def put(r: Report, names: Seq[(String, String)]): Unit =
    names.foreach { case (k, u) => r.put(k, 0.0, u, 0) }
}

/** Structure of result sketches, read through the public accessors only. */
object Structure {
  /** Σ_h levelState(h): every scheduled or special compaction advances a
    * level's state by one and merges OR states, so in the streaming setting
    * this counts compactions exactly.
    */
  def compactions(s: ReqSketch): Long = (0 to s.height).map(s.levelState).sum

  /** Squarings of N from the profile's initial bound to the current one. */
  def squarings(s: ReqSketch): Int = {
    var b = Conf.Profile.initialBound(Conf.Eps, Conf.Delta); var c = 0
    while (b < s.nBound) { b = if (b >= 3037000499L) Long.MaxValue else b * b; c += 1 }
    c
  }

  /** The sketch saw `n` items and its total weight R̂(+∞) is right: exact
    * before the first N-squaring, and within Theorem 1's ε·n after it (the
    * special compactions of a squaring promote odd-sized ranges, which
    * moves the weight by an unbiased ±2^h).
    */
  def weightOk(s: ReqSketch, n: Long): Boolean =
    s.n == n && (if (squarings(s) == 0) s.totalWeight == n
                 else math.abs(s.totalWeight - n) <= Conf.Eps * n)

  /** compactor.* structure metrics, summed (counts) or maxed (shape) over `ss`. */
  def report(r: Report, ss: Seq[ReqSketch]): Unit = {
    r.put("compactor.compactions", ss.map(compactions).sum.toDouble, "count")
    r.put("compactor.levels", ss.map(_.height + 1).max.toDouble, "count")
    r.put("compactor.capacity", ss.map(_.bufferCapacity).max.toDouble, "items")
    r.put("compactor.n_squarings", ss.map(squarings).max.toDouble, "count")
  }
}
