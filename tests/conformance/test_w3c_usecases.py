"""The W3C 'XML Query Use Cases' XMP queries (adapted to this engine's
subset) over the canonical bib.xml / reviews.xml / prices.xml fixtures.

These are the queries the XQuery 1.0 design was validated against; running
them end-to-end exercises FLWOR, joins, grouping, ordering, deep-equal and
constructor composition together.  Where a use case needs a feature we
exclude (full-text, schema types) it is adapted minimally and noted.
"""

import pytest

from repro import Engine
from tests.interpreted import interpreted

BIB = """
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor><last>Gerbarg</last><first>Darcy</first>
      <affiliation>CITI</affiliation></editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>
"""

REVIEWS = """
<reviews>
  <entry><title>Data on the Web</title><price>34.95</price>
    <review>A very good discussion of semi-structured database
      systems and XML.</review></entry>
  <entry><title>Advanced Programming in the Unix environment</title>
    <price>65.95</price>
    <review>A clear and detailed discussion of UNIX programming.</review>
  </entry>
  <entry><title>TCP/IP Illustrated</title><price>65.95</price>
    <review>One of the best books on TCP/IP.</review></entry>
</reviews>
"""


@pytest.fixture(scope="module")
def e() -> Engine:
    engine = Engine()
    engine.load_document("bib", BIB)
    engine.load_document("reviews", REVIEWS)
    return engine


class TestXMPUseCases:
    def test_q1_publisher_and_year_selection(self, e):
        """Q1: books published by Addison-Wesley after 1991."""
        out = e.execute(
            """<bib>{
                 for $b in $bib/bib/book
                 where $b/publisher = "Addison-Wesley" and $b/@year > 1991
                 return <book year="{ $b/@year }">{ $b/title }</book>
               }</bib>"""
        )
        xml = out.serialize()
        assert xml.count("<book") == 2
        assert "TCP/IP Illustrated" in xml
        assert "Unix environment" in xml
        assert "Data on the Web" not in xml

    def test_q2_flattened_title_author_pairs(self, e):
        """Q2: one <result> per (title, author) pair."""
        out = e.execute(
            """<results>{
                 for $b in $bib/bib/book, $t in $b/title, $a in $b/author
                 return <result>{ $t }{ $a }</result>
               }</results>"""
        )
        # 1 + 1 + 3 + 0 author pairs.
        assert out.serialize().count("<result>") == 5

    def test_q3_titles_with_all_authors(self, e):
        """Q3: one <result> per book with its title and all its authors."""
        out = e.execute(
            """<results>{
                 for $b in $bib/bib/book
                 return <result>{ $b/title }{ $b/author }</result>
               }</results>"""
        )
        xml = out.serialize()
        assert xml.count("<result>") == 4
        assert xml.count("<author>") == 5

    def test_q4_books_per_author(self, e):
        """Q4: one <result> per distinct author, with the titles of their
        books (adapted: distinct by last name)."""
        out = e.execute(
            """<results>{
                 for $last in distinct-values($bib//author/last)
                 return
                   <result>
                     <author>{ $last }</author>
                     {
                       for $b in $bib/bib/book
                       where $b/author/last = $last
                       return $b/title
                     }
                   </result>
               }</results>"""
        )
        xml = out.serialize()
        assert xml.count("<result>") == 4  # Stevens, Abiteboul, Buneman, Suciu
        # Stevens has two books:
        stevens = e.execute(
            "count($bib/bib/book[author/last = 'Stevens']/title)"
        ).first_value()
        assert stevens == 2

    def test_q5_join_with_reviews(self, e):
        """Q5: join bib and reviews on title, output title + review price."""
        query = """
            <books-with-prices>{
              for $b in $bib//book
              for $a in $reviews//entry
              where $b/title = $a/title
              return <book-with-prices>
                       { $b/title }
                       <price-review>{ string($a/price) }</price-review>
                       <price>{ string($b/price) }</price>
                     </book-with-prices>
            }</books-with-prices>
        """
        naive = interpreted(e, query).serialize()
        optimized = e.execute(query).serialize()
        assert naive == optimized
        assert naive.count("book-with-prices>") == 6  # 3 matches x open+close
        assert "<price-review>34.95</price-review>" in naive

    def test_q5_join_plan(self, e):
        from repro.algebra.plan import plan_operators

        query = """
            for $b in $bib//book
            for $a in $reviews//entry
            where $b/title = $a/title
            return $b/title
        """
        assert "HashJoin" in plan_operators(e.compile(query))

    def test_q6_books_with_multiple_authors(self, e):
        """Q6: books with at least one author, first two authors and an
        et-al marker when there are more than two."""
        out = e.execute(
            """<bib>{
                 for $b in $bib//book
                 where count($b/author) > 0
                 return <book>
                          { $b/title }
                          { for $a at $i in $b/author where $i <= 2 return $a }
                          { if (count($b/author) > 2)
                            then <et-al/> else () }
                        </book>
               }</bib>"""
        )
        xml = out.serialize()
        assert xml.count("<book>") == 3  # the editor-only book drops out
        assert xml.count("<et-al/>") == 1
        assert xml.count("<author>") == 4  # 1 + 1 + 2

    def test_q7_sorted_expensive_books(self, e):
        """Q7: books > $60, sorted by title."""
        out = e.execute(
            """<bib>{
                 for $b in $bib//book
                 where number($b/price) > 60
                 order by string($b/title)
                 return <book year="{$b/@year}">{ $b/title }</book>
               }</bib>"""
        )
        xml = out.serialize()
        # String order: "Advanced..." < "TCP/IP..." < "The Economics..."
        assert xml.index("Advanced Programming") < xml.index("TCP/IP")
        assert xml.index("TCP/IP") < xml.index("Economics")

    def test_q10_price_aggregation(self, e):
        """Q10: minimum, maximum and average book price."""
        out = e.execute(
            """let $prices := for $p in $bib//book/price return number($p)
               return <summary min="{ min($prices) }"
                               max="{ max($prices) }"
                               avg="{ avg($prices) }"/>"""
        )
        xml = out.serialize()
        assert 'min="39.95"' in xml
        assert 'max="129.95"' in xml
        assert 'avg="75.45"' in xml

    def test_q11_editor_affiliations(self, e):
        """Q11: books with editors, output title + editor affiliation."""
        out = e.execute(
            """<bib>{
                 for $b in $bib//book[editor]
                 return <book>{ $b/title }
                          <aff>{ string($b/editor/affiliation) }</aff>
                        </book>
               }</bib>"""
        )
        xml = out.serialize()
        assert xml.count("<book>") == 1
        assert "<aff>CITI</aff>" in xml

    def test_q12_books_with_same_authors(self, e):
        """Q12: pairs of books with exactly the same author sets."""
        out = e.execute(
            """<pairs>{
                 for $b1 in $bib//book, $b2 in $bib//book
                 where $b1 << $b2
                   and deep-equal($b1/author, $b2/author)
                   and exists($b1/author)
                 return <pair>{ $b1/title }{ $b2/title }</pair>
               }</pairs>"""
        )
        xml = out.serialize()
        assert xml.count("<pair>") == 1  # the two Stevens books
        assert "TCP/IP Illustrated" in xml and "Unix environment" in xml

    def test_update_extension_discount(self, e):
        """Beyond XMP: apply a 10% discount to Addison-Wesley books, the
        XQuery! way (one snap, conflict-detection)."""
        engine = Engine()
        engine.load_document("bib", BIB)
        engine.execute(
            """snap conflict-detection {
                 for $p in $bib//book[publisher = "Addison-Wesley"]/price
                 return replace { $p }
                        with { <price>{ xs:decimal($p) * 0.9 }</price> }
               }"""
        )
        prices = engine.execute(
            '$bib//book[publisher = "Addison-Wesley"]/price/string()'
        ).values()
        # Exact xs:decimal arithmetic: 65.95 * 0.9 is exactly 59.355.
        assert prices == ["59.355", "59.355"]
