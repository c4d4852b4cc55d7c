package repro.perfbench

import org.apache.datasketches.quantilescommon.QuantileSearchCriteria.INCLUSIVE

import repro.core.{RelativeCompactor, ReqSketch}

/** Layer probes of the traced run. Each drives one public layer with a
  * workload's own stream, outside the measured window.
  */
object Probes {
  import Conf._

  /** compactor.compact_us.*, compactor.sorted_items: a standalone
    * `RelativeCompactor` at the result's (k, numSections) fed the stream;
    * every compaction is timed and its buffer counted as sorted.
    */
  def replay(r: Report, stream: Array[Double], result: ReqSketch, seed: Long): Unit = {
    val k = result.sectionSize
    val c = new RelativeCompactor(k, result.bufferCapacity / (2 * k))
    val rng = new java.util.Random(seed)
    val us = new Samples
    var sorted = 0L
    var i = 0
    while (i < stream.length) {
      c.insert(stream(i))
      if (c.isAtCapacity) {
        sorted += c.size
        val t0 = System.nanoTime()
        c.compact(rng)
        us += (System.nanoTime() - t0) / 1e3
      }
      i += 1
    }
    r.timing("compactor.compact_us", "us", us, 0.99)
    r.put("compactor.sorted_items", sorted.toDouble, "items", us.size)
  }

  /** sketch.merge64_ms, sketch.merge_ms.*: 64 chunk sketches of the stream,
    * merged pairwise in a balanced tree (63 timed merges).
    */
  def merge64(r: Report, stream: Array[Double], seed: Long): Unit = {
    val chunk = stream.length / 64
    var level = Array.tabulate(64) { i =>
      val s = newSketch(sketchSeed(seed, 5000 + i))
      val end = if (i == 63) stream.length else (i + 1) * chunk
      var j = i * chunk
      while (j < end) { s.update(stream(j)); j += 1 }
      s
    }
    val ms = new Samples
    while (level.length > 1) {
      level = level.grouped(2).map { pair =>
        val t0 = System.nanoTime()
        val m = pair(0).merge(pair(1))
        ms += (System.nanoTime() - t0) / 1e6
        m
      }.toArray
    }
    r.put("sketch.merge64_ms", ms.sum, "ms", ms.size)
    r.put("sketch.merge_ms.p50", ms.median, "ms", ms.size)
    r.put("sketch.merge_ms.max", ms.max, "ms", ms.size)
  }

  /** sketch.merge_small_us.p50: pairwise merges of 18-item sketches, the
    * size of a partial buffer of the `reqUdaf` UDAF in a `GROUP BY` on the
    * ship day of the same `lineitem`.
    */
  def mergeSmall(r: Report, stream: Array[Double], seed: Long): Unit = {
    val items = 18
    val pairs = math.min(4096, stream.length / (2 * items))
    def small(i: Int): ReqSketch = {
      val s = newSketch(sketchSeed(seed, 10000 + i))
      var j = i * items
      while (j < (i + 1) * items) { s.update(stream(j)); j += 1 }
      s
    }
    val us = new Samples
    var p = 0
    while (p < pairs) {
      val a = small(2 * p); val b = small(2 * p + 1)
      val t0 = System.nanoTime()
      a.merge(b)
      us += (System.nanoTime() - t0) / 1e3
      p += 1
    }
    r.put("sketch.merge_small_us.p50", us.median, "us", us.size)
  }

  /** sketch.to_bytes_ms, sketch.from_bytes_ms, sketch.bytes_per_item. */
  def serde(r: Report, s: ReqSketch): Unit = {
    val to = new Samples; val from = new Samples
    var bytes: Array[Byte] = null
    for (_ <- 0 until 7) {
      val t0 = System.nanoTime()
      bytes = ReqSketch.toBytes(s)
      val t1 = System.nanoTime()
      ReqSketch.fromBytes(bytes)
      to += (t1 - t0) / 1e6
      from += (System.nanoTime() - t1) / 1e6
    }
    r.put("sketch.to_bytes_ms", to.median, "ms", to.size)
    r.put("sketch.from_bytes_ms", from.median, "ms", from.size)
    r.put("sketch.bytes_per_item", bytes.length.toDouble / s.itemsStored, "B/item")
  }

  /** ref.ds_req.*: DataSketches' production REQ (k = 50, low-rank accuracy
    * mode, the tail this sketch protects) on the same stream and probes,
    * 1,024 reads as on a `local_monitor` pass.
    * It stores floats, so its answers are scored against the float-rounded
    * items.
    */
  def dsReq(r: Report, stream: Array[Double], sorted: Array[Double]): Unit = {
    def build(n: Int) = {
      val ds = org.apache.datasketches.req.ReqSketch.builder().setK(50).setHighRankAccuracy(false).build()
      var i = 0
      while (i < n) { ds.update(stream(i).toFloat); i += 1 }
      ds
    }
    build(math.min(stream.length, 1 << 18)).getQuantile(0.5, INCLUSIVE) // warm-up
    val t0 = System.nanoTime()
    val ds = build(stream.length)
    val updateNs = (System.nanoTime() - t0).toDouble / stream.length
    val c = new Checker(Eps)
    val floats = sorted.map(_.toFloat.toDouble)
    val rankVals = geometricRanks(floats.length).map(k => floats((k - 1).toInt))
    val us = new Samples
    for (i <- 0 until 1024) {
      val phi = Phis(i % Phis.length)
      val t1 = System.nanoTime()
      val q = ds.getQuantile(phi, INCLUSIVE)
      us += (System.nanoTime() - t1) / 1e3
      Truth.checkQuantile(c, floats, phi, q.toDouble)
      val y = rankVals(i % rankVals.length)
      Truth.checkRank(c, floats, y, math.round(ds.getRank(y.toFloat, INCLUSIVE) * ds.getN))
    }
    r.put("ref.ds_req.update_ns", updateNs, "ns/item")
    r.put("ref.ds_req.quantile_us", us.median, "us", us.size)
    r.put("ref.ds_req.bytes", ds.toByteArray.length.toDouble, "B")
    r.put("ref.ds_req.tail_rel_err", c.tailErr, "ratio", c.attempted)
  }
}
