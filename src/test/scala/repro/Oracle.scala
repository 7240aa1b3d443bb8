package repro

import java.sql.DriverManager
import org.duckdb.{DuckDBAppender, DuckDBConnection}

/** DuckDB correctness oracle.
  *
  * `query(sql, tables*)` loads the tables into a fresh in-process DuckDB
  * database (JDBC) and returns the rows `sql` yields, in the order it yields
  * them, so a test can state a result of the engine as SQL and compare.
  * "It ran" is not "it is correct".
  *
  * A table is an array of rows of one type, loaded into typed columns
  * (`DOUBLE` or `INTEGER`, so the SQL needs no casts) behind a leading
  * `id INTEGER` that holds the row's index, the key the engine uses. Keep
  * tables small: this is an oracle, not a bench.
  */
object Oracle {

  /** A table to load: `cols` names the columns of each row, after `id`. */
  final class Table private (val name: String, val cols: Seq[String], val sqlType: String, val size: Int,
                             val append: (DuckDBAppender, Int) => Unit)

  object Table {
    def apply(name: String, cols: Seq[String], rows: Array[Array[Double]]): Table =
      new Table(name, cols, "DOUBLE", rows.length, (a, r) => rows(r).foreach(v => a.append(v)))

    def apply(name: String, cols: Seq[String], rows: Array[Array[Int]]): Table =
      new Table(name, cols, "INTEGER", rows.length, (a, r) => rows(r).foreach(v => a.append(v)))
  }

  /** The rows of `sql` over `tables`, each value as JDBC returns it
    * (`Integer`, `Long`, `Double`, …).
    */
  def query(sql: String, tables: Table*): Vector[Vector[Any]] = {
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for (t <- tables) {
        conn.createStatement.execute(
          s"CREATE TABLE ${t.name} (id INTEGER, ${t.cols.map(c => s"$c ${t.sqlType}").mkString(", ")})")
        val appender = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, t.name)
        for (r <- 0 until t.size) {
          appender.beginRow()
          appender.append(r)
          t.append(appender, r)
          appender.endRow()
        }
        appender.close()
      }
      val rs = conn.createStatement.executeQuery(sql)
      val width = rs.getMetaData.getColumnCount
      Iterator.continually(rs).takeWhile(_.next()).map(r => Vector.tabulate(width)(c => r.getObject(c + 1))).toVector
    } finally conn.close()
  }
}
