package repro.perfbench

/** Benchmark entry point: runs one workload and prints its metric table
  * (`#` lines with units and sample counts) followed by one JSON result line.
  *
  * {{{
  * Main --workload <local_monitor|spark_column> --seed <n>
  *      --seconds <s> --trace <0|1> --out <dir> --tmp <dir>
  * }}}
  */
object Main {
  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val rt = Runtime.getRuntime
    println(s"# ${o.workload} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} " +
      s"java=${System.getProperty("java.version")} nproc=${rt.availableProcessors} " +
      s"heap=${rt.maxMemory >> 20}MiB threads=${if (o.workload == "local_monitor") 1 else Conf.Cores}")
    val report = o.workload match {
      case "local_monitor" => new LocalMonitor(o).run()
      case "spark_column" => new SparkColumn(o).run()
      case w => throw new IllegalArgumentException(s"unknown workload: $w")
    }
    print(report.table(o.workload))
    println(report.json)
  }
}
