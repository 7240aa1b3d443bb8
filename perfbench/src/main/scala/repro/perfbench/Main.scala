package repro.perfbench

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, lit}
import repro.core.{IIM, Neighbors}
import repro.linalg.LinAlg.Vec
import repro.ml.Metrics
import repro.spark.SparkIIM

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** The benchmark JVM, launched by run.py. At most one SparkSession, one workload.
  *
  * Every mode builds the workload and prints READY; all but `local` start
  * Spark first. Then:
  *  - `local`: times `IIM.LocalImputer` passes, without Spark, gated against
  *             the output in `--local-file` (written by the first such JVM);
  *  - `setup`: exits;
  *  - `spark`: times a cold and repeated warm `SparkImputer.imputeAll`
  *             passes, gated against the output in `--local-file`;
  *  - `trace`: makes one traced pass through the layer calls (per-layer
  *             metrics), with a Spark listener, written to `--trace-out`.
  * `local`, `setup` and `spark` give the end-to-end metrics, untraced.
  *
  * Every pass goes through [[Gate]]. Stdout carries only the protocol lines
  * `READY {json}`, `STAMP {json}` and `RESULT {json}`.
  */
object Main {

  final case class Opts(mode: String, workload: String, seed: Long, seconds: Double, scale: Double,
                        cores: Int, fault: String, traceOut: String, localFile: String)

  type Outcome = Try[Array[Double]]

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val tr = new Tracer
    val spark = if (o.mode == "local") None else Some(tr.span("spark.session")(session(o.cores)))
    try {
      val wl = Workloads.build(o.workload, o.seed, o.scale, tr)
      emit("READY", Map("workload" -> wl.name))
      emit("STAMP", stamp(spark, wl, o))
      (o.mode, spark) match {
        case ("local", _) => emit("RESULT", local(wl, o))
        case ("setup", _) => emit("RESULT", Map.empty)
        case ("spark", Some(spark)) => emit("RESULT", sparkRun(spark, wl, o))
        case ("trace", Some(spark)) => emit("RESULT", trace(spark, wl, o, tr))
        case (other, _) => throw new IllegalArgumentException(s"unknown mode $other")
      }
    } finally spark.foreach(_.stop())
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String, d: String): String = kv.getOrElse(k, d)
    Opts(get("mode", "spark"), get("workload", "sn-table5"), get("seed", "42").toLong,
      get("seconds", "10").toDouble, get("scale", "1.0").toDouble,
      get("cores", Runtime.getRuntime.availableProcessors.toString).toInt,
      get("fault", "none"), get("trace-out", ""), get("local-file", ""))
  }

  /** local[cores] with the shuffle-partition and broadcast-join settings of
    * the test suites' shared session.
    */
  private def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  private def emit(tag: String, v: Map[String, Any]): Unit = {
    System.out.println(s"$tag ${Json(v)}")
    System.out.flush()
  }

  private def stamp(spark: Option[SparkSession], wl: Workload, o: Opts): Map[String, Any] = Map(
    "workload" -> wl.name, "seed" -> o.seed, "scale" -> o.scale, "mode" -> o.mode,
    "spark_master" -> spark.map(_.sparkContext.master),
    "spark_version" -> spark.map(_.version),
    "shuffle_partitions" -> spark.map(_.conf.get("spark.sql.shuffle.partitions")),
    "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "available_processors" -> Runtime.getRuntime.availableProcessors,
    "shape" -> wl.shape)

  // ---- imputation calls ------------------------------------------------------

  private def sparkCall(spark: SparkSession, wl: Workload, t: Task): Array[Double] =
    new SparkIIM.SparkImputer(spark, wl.params).imputeAll(wl.complete, t.featIdx, t.attr, t.queries, wl.seed + 2)

  private def localCall(wl: Workload, t: Task): Array[Double] =
    new IIM.LocalImputer(wl.params).imputeAll(wl.complete, t.featIdx, t.attr, t.queries, wl.seed + 2)

  /** One full imputation of every task; a throwing task is recorded, not raised. */
  private def pass(wl: Workload)(call: Task => Array[Double]): (Seq[Outcome], Double) = {
    val t0 = System.nanoTime()
    val out = wl.tasks.map(t => Try(call(t)))
    (out, (System.nanoTime() - t0) / 1e9)
  }

  /** The self-check's `--fault throw` makes the first Spark call of task 0 fail. */
  private def coldSparkCall(spark: SparkSession, wl: Workload, o: Opts): Task => Array[Double] = {
    val first = wl.tasks.head
    t => if (o.fault == "throw" && (t eq first)) throw new IllegalStateException("injected fault")
         else sparkCall(spark, wl, t)
  }

  // ---- end-to-end run --------------------------------------------------------

  /** `localWarmup` untimed passes then one timed pass, each gated against
    * the output of the first local JVM of the run, which this JVM writes if
    * it is that one. Injected faults act on the Spark JVM only.
    */
  private def local(wl: Workload, o: Opts): Map[String, Any] = {
    val plan = Workloads.plans(wl.name)
    val gate = new Gate(wl, o.copy(fault = "none"))
    val local = (0 to plan.localWarmup).map(_ => pass(wl)(localCall(wl, _)))
    val file = Paths.get(o.localFile)
    if (!Files.exists(file)) Outputs.write(file, local.head._1)
    val reference = Outputs.read(file, wl)
    local.foreach { case (l, _) => gate.check(l, reference) }
    gate.result ++ Map("local_impute_s_samples" -> Seq(local.last._2), "local_jvms" -> plan.jvms(o.seconds))
  }

  /** The cold pass, then `sparkWarmup` untimed and the timed warm passes;
    * every output is gated against the first local JVM's output.
    */
  private def sparkRun(spark: SparkSession, wl: Workload, o: Opts): Map[String, Any] = {
    val plan = Workloads.plans(wl.name)
    val gate = new Gate(wl, o)
    val local = Outputs.read(Paths.get(o.localFile), wl)
    val (cold, coldS) = pass(wl)(coldSparkCall(spark, wl, o))
    val warm = (0 until plan.sparkWarmup + plan.sparks(o.seconds)).map(_ => pass(wl)(sparkCall(spark, wl, _)))
    (cold +: warm.map(_._1)).foreach(s => gate.check(s, local))
    gate.result ++ Map("cold_s" -> coldS, "impute_s_samples" -> warm.drop(plan.sparkWarmup).map(_._2),
      "spark_warmup_passes" -> plan.sparkWarmup)
  }

  // ---- traced run ------------------------------------------------------------

  private def trace(spark: SparkSession, wl: Workload, o: Opts, tr: Tracer): Map[String, Any] = {
    val gate = new Gate(wl, o)
    val stats = new TaskStats
    spark.sparkContext.addSparkListener(stats)
    // The cold Spark pass also warms the shared core code (kNN, Prop. 3
    // learning, Alg. 2) for the traced and untraced local passes that follow.
    val (cold, _) = pass(wl)(coldSparkCall(spark, wl, o))
    val counters = new Counters
    val traced = wl.tasks.indices.map(ti => Try(tracedLocal(wl, ti, tr, counters)))
    val (untraced, localS) = pass(wl)(localCall(wl, _))
    gate.check(cold, untraced)
    gate.check(traced, untraced)
    // A separate k-NN lookup pass over the same queries, timing the read path
    // of Algorithm 2 on its own (not part of the summed local layers).
    var sink = 0L
    wl.tasks.zipWithIndex.foreach { case (t, ti) =>
      tr.span("core.Neighbors.query", ti)(t.queries.foreach(q => sink += Neighbors.nearest(wl.complete, t.featIdx, q, wl.params.k)(0)))
    }

    PerfbenchBus.drain(spark.sparkContext)
    stats.reset()
    val sparkOut = wl.tasks.indices.map(ti => Try(tracedSpark(spark, wl, ti, tr)))
    PerfbenchBus.drain(spark.sparkContext)
    gate.check(sparkOut, untraced)

    val localLayers = Seq("core.Neighbors.lists", "core.IIM.learn", "core.IIM.validate", "core.IIM.select", "core.IIM.alg2")
    val sparkWall = tr.total("spark")
    def s(name: String) = (name + "_s") -> tr.total(name)
    val metrics: Map[String, Any] = Map(
      s("data.generate"), s("data.inject"), s("spark.session"),
      s("core.Neighbors.lists"), s("core.Neighbors.query"), s("core.IIM.alg2"),
      s("core.IIM.learn"), s("core.IIM.validate"), s("core.IIM.select"),
      s("spark.SparkIIM.adaptive_models"), s("spark.SparkIIM.impute"),
      "spark.tasks.run_s" -> stats.runMs / 1e3,
      "spark.tasks.cpu_s" -> stats.cpuNs / 1e9,
      "spark.tasks.gc_s" -> stats.gcMs / 1e3,
      "spark.tasks.count" -> stats.tasks,
      "spark.tasks.failed" -> stats.failed,
      "spark.jobs" -> stats.jobs,
      "spark.stages" -> stats.stages,
      "spark.shuffle.write_bytes" -> stats.shuffleBytes,
      "spark.shuffle.records" -> stats.shuffleRecords,
      "spark.result_bytes" -> stats.resultBytes,
      "spark.core_idle_frac" -> (1.0 - stats.runMs / 1e3 / (sparkWall * o.cores)),
      "trace.overhead_frac" -> (localLayers.map(tr.total).sum / localS - 1.0),
    ) ++ counters.metrics
    val dump = Map(
      "stamp" -> stamp(Some(spark), wl, o), "metrics" -> metrics, "untraced_local_impute_s" -> localS,
      "sink" -> sink, "layers" -> tr.summary, "spans" -> tr.records, "gate" -> gate.result)
    if (o.traceOut.nonEmpty)
      Files.write(Paths.get(o.traceOut), Json(dump).getBytes(StandardCharsets.UTF_8))
    gate.result ++ Map("per_layer" -> metrics)
  }

  /** Algorithm 3 then Algorithm 2 through the public layer calls, in the
    * order `IIM.adaptive` and `LocalImputer` make them, one span per call.
    */
  private def tracedLocal(wl: Workload, ti: Int, tr: Tracer, counters: Counters): Array[Double] = {
    val t = wl.tasks(ti)
    val p = wl.params
    val data = wl.complete
    val (lists, models, cost, chosen, out) = tr.span("local", ti) {
      val ls = IIM.ellCandidates(data.length, p.lMax, p.step)
      val limit = math.max(ls.last, p.kvEff + 1)
      val lists = tr.span("core.Neighbors.lists", ti)(IIM.neighborLists(data, t.featIdx, limit))
      val models = tr.span("core.IIM.learn", ti)(IIM.candidateModels(data, t.featIdx, t.attr, lists, ls, p.alpha))
      val cost = tr.span("core.IIM.validate", ti)(IIM.validationCosts(data, t.featIdx, t.attr, lists, models, ls, p.kvEff))
      val chosen = tr.span("core.IIM.select", ti)(IIM.selectModels(models, cost))
      val out = tr.span("core.IIM.alg2", ti)(t.queries.map(q => IIM.imputeOne(data, chosen, t.featIdx, q, p.k)))
      (lists, models, cost, chosen, out)
    }
    counters.add(wl, t, lists, models, cost, chosen)
    out
  }

  /** `SparkImputer.imputeAll` split at its two public calls: learning, then
    * the Algorithm 2 UDF over the same query DataFrame `imputeValues` builds.
    */
  private def tracedSpark(spark: SparkSession, wl: Workload, ti: Int, tr: Tracer): Array[Double] = {
    import spark.implicits._
    val t = wl.tasks(ti)
    tr.span("spark", ti) {
      val models = tr.span("spark.SparkIIM.adaptive_models", ti)(
        SparkIIM.adaptiveModels(spark, wl.complete, t.featIdx, t.attr, wl.params))
      tr.span("spark.SparkIIM.impute", ti) {
        val featCols = t.featIdx.indices.map(a => s"f$a")
        val qDf = spark.createDataset(t.queries.zipWithIndex.map { case (q, id) => (id, q.toSeq) })
          .toDF("id", "fs")
          .select(col("id") +: featCols.zipWithIndex.map { case (c, a) => col("fs").getItem(a).as(c) }: _*)
          .withColumn("y", lit(Double.NaN))
        val rows = SparkIIM.impute(spark, qDf, featCols, "y", wl.complete, t.featIdx, models, wl.params.k)
          .select("id", "y").collect()
        val res = new Array[Double](t.queries.length)
        rows.foreach(r => res(r.getInt(0)) = r.getDouble(1))
        res
      }
    }
  }
}

/** One pass's outputs in a file, for the gate across JVMs: per target
  * attribute a cell count (-1 if the call threw) and the cells' raw bits.
  */
object Outputs {
  def write(path: Path, out: Seq[Main.Outcome]): Unit = {
    val s = new DataOutputStream(new BufferedOutputStream(Files.newOutputStream(path)))
    try out.foreach {
      case Success(a) => s.writeInt(a.length); a.foreach(s.writeDouble)
      case _ => s.writeInt(-1)
    } finally s.close()
  }

  def read(path: Path, wl: Workload): Seq[Main.Outcome] = {
    val s = new DataInputStream(new BufferedInputStream(Files.newInputStream(path)))
    try wl.tasks.map { _ =>
      val n = s.readInt()
      if (n < 0) Failure(new IllegalStateException("the local pass threw"))
      else Success(Array.fill(n)(s.readDouble()))
    } finally s.close()
  }
}

/** Work counts of the traced local pass. Those marked "computed" follow from
  * input sizes and the returned neighbour lists; the rest are read from the
  * returned arrays.
  */
final class Counters {
  private val c = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
  private val ellStar = mutable.ArrayBuffer.empty[Int]

  def add(wl: Workload, t: Task, lists: Array[Array[Int]], models: Array[Array[Vec]],
          cost: Array[Array[Double]], chosen: Array[Vec]): Unit = {
    val p = wl.params
    val n = wl.n
    val ls = IIM.ellCandidates(n, p.lMax, p.step)
    // computed: each of the n lists scans all n rows
    c("core.Neighbors.distance_evals") += n.toLong * n
    c("core.Neighbors.list_entries") += lists.map(_.length.toLong).sum
    c("core.IIM.alg2_queries") += t.queries.length
    // computed: Prop. 3 appends each neighbour once, up to the largest ℓ, and
    // solves at every candidate ℓ > 1
    c("core.Ridge.rows_added") += lists.map(l => math.min(ls.last, l.length).toLong).sum
    c("core.Ridge.solves") += lists.map(l => ls.count(ell => math.min(ell, l.length) > 1).toLong).sum
    // computed: each validation tuple j contributes |ℓ| costs per neighbour i ≠ j, up to kv
    c("core.IIM.validation_contributions") +=
      lists.indices.map(j => math.min(p.kvEff, lists(j).count(_ != j)).toLong * ls.length).sum
    c("core.IIM.fallback_tuples") += cost.count(_.forall(_ <= 0.0))
    // ℓ* recovered by matching each selected model to its candidate by reference
    chosen.indices.foreach(i => ellStar += ls(models(i).indexWhere(_ eq chosen(i))))
  }

  private def percentile(q: Double): Int = {
    val s = ellStar.sorted
    s(math.min(s.length - 1, math.ceil(q * s.length).toInt - 1).max(0))
  }

  def metrics: Map[String, Any] =
    c.toMap ++ Map("core.IIM.ell_star_p50" -> percentile(0.5), "core.IIM.ell_star_p90" -> percentile(0.9))
}

/** The output gate. Each check pairs an output under test (a Spark output,
  * or in the local JVM a later local one) with a local output of the same
  * problem; a cell fails if either call threw, either value is not finite,
  * or the two values differ in any bit. Local outputs must also repeat the
  * first local pass bit for bit, and the RMS of the outputs under test must
  * repeat too (and, at seed 42 and scale 1, equal the recorded value).
  * Failures are counted, never raised.
  */
final class Gate(wl: Workload, o: Main.Opts) {
  private val notes = mutable.ArrayBuffer.empty[String]
  private var reference: Seq[Array[Double]] = Nil
  private var rmsSeen = Option.empty[Double]
  var attempted, failed = 0L

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  def check(out: Seq[Main.Outcome], local: Seq[Main.Outcome]): Unit = {
    if (reference.isEmpty) reference = local.map(_.getOrElse(null))
    val flip = o.fault == "flip" && attempted == 0
    wl.tasks.indices.foreach { ti =>
      val q = wl.tasks(ti).queries.length
      attempted += q
      (out(ti).toEither, local(ti).toEither) match {
        case (Right(s), Right(l)) =>
          if (flip && ti == 0) s(0) = java.lang.Double.longBitsToDouble(bits(s(0)) ^ 1L)
          val ref = reference(ti)
          var bad = 0
          var i = 0
          while (i < q) {
            if (!s(i).isFinite || !l(i).isFinite || bits(s(i)) != bits(l(i)) ||
                ref == null || bits(l(i)) != bits(ref(i))) bad += 1
            i += 1
          }
          if (bad > 0) notes += s"attr ${wl.tasks(ti).attr}: $bad of $q cells differ or are not finite"
          failed += bad
        case (s, l) =>
          failed += q
          Seq(s, l).collect { case Left(e) => e }.foreach(e => notes += s"attr ${wl.tasks(ti).attr}: threw $e")
      }
    }
    if (out.forall(_.isSuccess)) {
      val rms = Metrics.rms(wl.truths, out.flatMap(_.get).toArray)
      rmsSeen match {
        case None => rmsSeen = Some(rms)
        case Some(r) if bits(r) != bits(rms) => notes += s"rms changed between passes: $r then $rms"
        case _ =>
      }
    }
  }

  def rms: Double = rmsSeen.getOrElse(Double.NaN)

  private def seedGate: Seq[String] =
    if (o.seed != 42 || o.scale != 1.0) Nil
    else {
      val want = Workloads.rmsAtSeed42(wl.name)
      val a = if (bits(rms) != want)
        Seq(s"rms $rms differs from the seed-42 value ${java.lang.Double.longBitsToDouble(want)}") else Nil
      val b = if (wl.name == "sn-table5" && f"$rms%.2f" != Workloads.snTable5Printed)
        Seq(f"rms $rms%.2f differs from Table V (${Workloads.snTable5Printed})") else Nil
      a ++ b
    }

  def result: Map[String, Any] = {
    val all = notes.toSeq ++ seedGate
    Map("correct" -> (all.isEmpty && failed == 0 && !rms.isNaN), "attempted" -> attempted,
        "failed" -> failed, "rms" -> rms, "gate_notes" -> all.take(20))
  }
}
