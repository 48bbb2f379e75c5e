package repro.search

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck
import repro.core.Parallel

class RankingSpec extends AnyFunSuite {

  /** A lake of distinct ids, a query (in the lake or not), a k, and a
    * score per id; few distinct scores, so ties are common.
    */
  private val cases = for {
    ids    <- Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, Gen.choose(0, 20).map(i => s"t$i.csv"))).map(_.distinct)
    query  <- Gen.frequency(4 -> Gen.oneOf(ids :+ "q.csv"), 1 -> Gen.const("q.csv"))
    k      <- Gen.choose(0, ids.size + 2)
    scores <- Gen.listOfN(ids.size, Gen.frequency(
                1 -> Gen.const(None),
                3 -> Gen.oneOf(0.0, 0.25, 0.5, 1.0).map(Some(_)),
                2 -> Gen.choose(-1.0, 1.0).map(Some(_))))
  } yield (ids, query, k, ids.zip(scores).toMap)

  test("the query and unscored ids are never returned, at most k, ordered by (-score, id)") {
    PropCheck.check(Prop.forAllNoShrink(cases) { case (ids, query, k, score) =>
      // a ranks before b: higher score, or the same score and a smaller id.
      def before(a: String, b: String): Boolean = {
        val c = java.lang.Double.compare(score(b).get, score(a).get)
        c < 0 || c == 0 && a < b
      }
      val got = Ranking.lake(ids, query, k)(score)
      val candidates = ids.filter(id => id != query && score(id).nonEmpty)
      !got.contains(query) && got.forall(candidates.contains) && got.distinct == got &&
        got.size == math.min(k, candidates.size) &&
        got.zip(got.drop(1)).forall { case (a, b) => before(a, b) } &&
        got.lastOption.forall(last => candidates.filterNot(got.contains).forall(before(last, _)))
    })
  }

  test("a ranking run inline inside a pool task equals the one run on the pool") {
    PropCheck.check(Prop.forAllNoShrink(cases) { case (ids, query, k, score) =>
      val onPool = Ranking.lake(ids, query, k)(score)
      Parallel.map(Seq(1, 2))(_ => Ranking.lake(ids, query, k)(score)).forall(_ == onPool)
    }, minSuccessful = 100)
  }
}
