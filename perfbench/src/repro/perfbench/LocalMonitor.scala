package repro.perfbench

import scala.util.control.NonFatal

import repro.core.ReqSketch
import repro.exp.Workloads

/** `local_monitor`: a service embedding one sketch. Each pass streams 2^22
  * seeded uniform doubles into a fresh `ReqSketch` in batches of 2^15, and
  * after every batch issues a read batch of 8 `quantile` calls at tail-heavy
  * φ and 8 `rank` calls at values of geometric exact rank. Reads follow
  * every write batch, so a query cache that writes invalidate is rebuilt
  * 128 times a pass. No Spark, merge or serde work is timed.
  */
final class LocalMonitor(o: Opts) {
  import Conf._

  private val N = 1 << 22
  private val Batch = 1 << 15
  private val Batches = N / Batch
  private val Reads = Phis.length
  /** Passes a run measures at least: every batch and call is timed at its
    * fastest of these repetitions.
    */
  private val MinPasses = 3
  /** Sketch seed index of the measured passes: all of them, traced ones
    * included, repeat the same updates, compactions and reads.
    */
  private val PassSeed = 1

  private var data: Array[Double] = _
  private var sorted: Array[Double] = _
  /** Position of `data(i)` in `sorted`: the key of the prefix-truth sweep. */
  private var pos: Array[Int] = _
  private var rankVals: Array[Double] = _

  private final class Pass(val batches: Int) {
    val updateNs = new Array[Double](batches)
    val batchOk = new Array[Boolean](batches)
    val quantileNs = new Array[Long](batches * Reads)
    val quantiles = new Array[Double](batches * Reads)
    val rankNs = new Array[Long](batches * Reads)
    val ranks = new Array[Long](batches * Reads)
    var wallNs = 0L
    var sketch: ReqSketch = _
  }

  /** Inputs and exact truth; returns (generation, truth) nanoseconds. */
  private def setupOnce(): (Long, Long) = {
    val t0 = System.nanoTime()
    data = Workloads.uniform(N, o.seed)
    val t1 = System.nanoTime()
    sortWithPositions()
    rankVals = geometricRanks(N).map(r => sorted((r - 1).toInt))
    (t1 - t0, System.nanoTime() - t1)
  }

  /** `sorted` and `pos` from one primitive sort of (41-bit fixed-point
    * value, index) keys; the rare items that share a key prefix are put in
    * value order by an insertion pass.
    */
  private def sortWithPositions(): Unit = {
    val keys = new Array[Long](N)
    var i = 0
    while (i < N) { keys(i) = ((data(i) * (1L << 41)).toLong << 22) | i; i += 1 }
    java.util.Arrays.sort(keys)
    val idx = keys.map(k => (k & (N - 1)).toInt)
    i = 1
    while (i < N) {
      var k = i
      while (k > 0 && data(idx(k)) < data(idx(k - 1))) {
        val t = idx(k); idx(k) = idx(k - 1); idx(k - 1) = t; k -= 1
      }
      i += 1
    }
    sorted = new Array[Double](N); pos = new Array[Int](N)
    i = 0
    while (i < N) { sorted(i) = data(idx(i)); pos(idx(i)) = i; i += 1 }
  }

  private def runPass(seed: Long, batches: Int, tr: Tracer, parent: Int): Pass = {
    val p = new Pass(batches)
    val sk = newSketch(seed)
    p.sketch = sk
    val root = if (tr != null) tr.open("pass", parent) else -1
    val start = System.nanoTime()
    var b = 0
    while (b < batches) {
      val t0 = System.nanoTime()
      var i = b * Batch
      val end = i + Batch
      val updated = try { while (i < end) { sk.update(data(i)); i += 1 }; true }
                    catch { case NonFatal(_) => false }
      val t1 = System.nanoTime()
      p.updateNs(b) = (t1 - t0).toDouble / Batch
      if (tr != null) tr.add("update", t0, t1, root)
      p.batchOk(b) = updated && Structure.weightOk(sk, end)
      var j = 0
      while (j < Reads) {
        val k = b * Reads + j
        val a = System.nanoTime()
        p.quantiles(k) = try sk.quantile(Phis(j)) catch { case NonFatal(_) => Double.NaN }
        val c = System.nanoTime()
        p.ranks(k) = try sk.rank(rankVals(j)) catch { case NonFatal(_) => -1L }
        val d = System.nanoTime()
        p.quantileNs(k) = c - a
        p.rankNs(k) = d - c
        if (tr != null) { tr.add("quantile", a, c, root); tr.add("rank", c, d, root) }
        j += 1
      }
      b += 1
    }
    p.wallNs = System.nanoTime() - start
    if (tr != null) tr.close(root)
    p
  }

  /** Score every answer of a pass against the truth of the prefix it saw,
    * sweeping a Fenwick tree over the stream in arrival order.
    */
  private def verify(p: Pass, c: Checker): Unit = {
    val fw = new Array[Int](N + 1)
    def below(i: Long): Long = { var x = i.toInt; var s = 0L; while (x > 0) { s += fw(x); x -= x & -x }; s }
    var b = 0
    while (b < p.batches) {
      var i = b * Batch
      while (i < (b + 1) * Batch) { var x = pos(i) + 1; while (x <= N) { fw(x) += 1; x += x & -x }; i += 1 }
      val m = (b + 1).toLong * Batch
      c.op(p.batchOk(b))
      for (j <- 0 until Reads) {
        val k = b * Reads + j
        val y = p.quantiles(k)
        if (y.isNaN) c.op(false)
        else c.quantile(y, Truth.target(Phis(j), m), below(Truth.less(sorted, y)), below(Truth.leq(sorted, y)), m)
        c.rank(p.ranks(k), below(Truth.leq(sorted, rankVals(j))), m)
      }
      b += 1
    }
  }

  /** Identical passes until `seconds` have elapsed (at least `MinPasses`),
    * or exactly `count`.
    */
  private def measure(count: Int, tr: Tracer, parent: Int): Seq[Pass] = {
    val out = Seq.newBuilder[Pass]
    val start = System.nanoTime()
    var i = 0
    while (if (count > 0) i < count else i < MinPasses || System.nanoTime() - start < o.seconds * 1e9) {
      out += runPass(sketchSeed(o.seed, PassSeed), Batches, tr, parent)
      i += 1
    }
    out.result()
  }

  def run(): Report = {
    val r = new Report
    val gen = new Samples; val truth = new Samples
    for (_ <- 0 until SetupReps) {
      val (g, t) = setupOnce()
      gen += g / 1e9; truth += t / 1e9
    }
    val setup = Stats.median(Array.tabulate(SetupReps)(i => gen.toArray(i) + truth.toArray(i)))
    val w0 = System.nanoTime()
    var i = 0
    while (System.nanoTime() - w0 < WarmupSeconds * 1e9) {
      runPass(sketchSeed(o.seed, 900 + i), Batches / 4, null, -1); i += 1
    }
    val warmupS = Stats.seconds(System.nanoTime() - w0)

    settle()
    val passes = measure(0, null, -1)
    val c = new Checker(Eps)
    passes.foreach(verify(_, c))

    // Every batch and call at its fastest of the identical passes; a pass
    // of those best times gives the throughput.
    val update = Best.of(passes.map(_.updateNs))
    val quantile = Best.of(passes.map(_.quantileNs.map(_ / 1e3)))
    val rank = Best.of(passes.map(_.rankNs.map(_ / 1e3)))
    val bestPassS = update.sum * Batch / 1e9 + (quantile.sum + rank.sum) / 1e6
    val reps = passes.size.toLong
    r.put("setup_s", setup, "s", SetupReps)
    r.put("items_per_s", N / bestPassS, "items/s", reps)
    r.timing("update_ns", "ns/item", update, 0.90, update.size * reps)
    r.timing("quantile_us", "us", quantile, 0.99, quantile.size * reps)
    r.timing("rank_us", "us", rank, 0.99, rank.size * reps)
    r.put("sketch_bytes", Stats.median(passes.map(p => ReqSketch.toBytes(p.sketch).length.toDouble).toArray), "B", passes.size)
    r.put("retained_items", Stats.median(passes.map(_.sketch.itemsStored.toDouble).toArray), "items", passes.size)

    if (!o.trace) { r.attempted = c.attempted; r.failed = c.failed; return r }

    settle()
    val tr = new Tracer(s"local_monitor-seed${o.seed}")
    val window = tr.open("window")
    val traced = measure(passes.size, tr, window)
    tr.close(window)
    traced.foreach(verify(_, c))
    r.attempted = c.attempted; r.failed = c.failed

    val t = new Report
    val last = traced.last.sketch
    Structure.report(t, Seq(last))
    Probes.replay(t, data, last, o.seed)
    val self = tr.selfTimes
    val windowNs = tr.duration(window).toDouble
    val calls = Seq("update", "quantile", "rank").map(n => n -> tr.selfUnder(window, n, self)).toMap
    t.put("sketch.update_share", calls("update") / windowNs, "ratio")
    t.put("sketch.quantile_share", calls("quantile") / windowNs, "ratio")
    t.put("sketch.rank_share", calls("rank") / windowNs, "ratio")
    Probes.merge64(t, data, o.seed)
    Probes.mergeSmall(t, data, o.seed)
    Probes.serde(t, last)
    NotRun.put(t, NotRun.Spark)
    t.put("setup.gen_s", gen.median, "s", SetupReps)
    t.put("setup.truth_s", truth.median, "s", SetupReps)
    t.put("setup.warmup_s", warmupS, "s")
    t.put("quality.tail_rel_err", c.tailErr, "ratio", c.attempted)
    t.put("quality.max_rel_err", c.maxErr, "ratio", c.attempted)
    t.put("quality.weight_drift", math.abs(last.totalWeight - last.n).toDouble / last.n, "ratio")
    Probes.dsReq(t, data, sorted)
    NotRun.put(t, NotRun.SparkRefs)
    val untracedNs = passes.map(_.wallNs).sum.toDouble / passes.size
    val tracedNs = traced.map(_.wallNs).sum.toDouble / traced.size
    t.put("trace.overhead_pct", 100 * (tracedNs / untracedNs - 1), "%")
    t.put("trace.span_cover_pct", 100 * calls.values.sum / traced.size / untracedNs, "%")
    tr.write(new java.io.File(o.out, s"trace/local_monitor-seed${o.seed}.jsonl"))
    t.attempted = r.attempted; t.failed = r.failed
    t
  }
}
