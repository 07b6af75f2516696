"""Shared fixtures: the thesis' running examples and synthetic corpora."""

import pytest

from repro.engine.batch import compile_batch
from repro.engine.physical import compile_plan
from repro.summary import build_enhanced_summary
from repro.workloads import generate_dblp, generate_xmark
from repro.xmldata import load

def run_physical(physical, context=None):
    """Execute a physical plan through its compiled batch closure."""
    return compile_batch(physical)(dict(context or {})).tuples


def run_plan(plan, context=None, scan_orders=None):
    """Compile a logical plan and execute it on the batch engine."""
    return compile_batch(compile_plan(plan, scan_orders))(context or {}).tuples


#: Figure 2.5 — the bibliographic running example
BIB_XML = """
<library>
  <book year="1999">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Suciu</author>
  </book>
  <book>
    <title>The Syntactic Web</title>
    <author>Tom Lerners-Bee</author>
  </book>
  <phdthesis year="2004">
    <title>The Web: next generation</title>
    <author>Jim Smith</author>
  </phdthesis>
</library>
"""

#: Figure 5.2 flavor — a small auction fragment with recursion-ready markup
AUCTION_XML = """
<site>
  <regions>
    <item id="i1">
      <name>Fish</name>
      <description>
        <parlist>
          <listitem><keyword>rare</keyword><keyword>big</keyword></listitem>
          <listitem><text>plain text</text></listitem>
        </parlist>
      </description>
      <mail>first</mail>
    </item>
    <item id="i2">
      <name>Rock</name>
      <mail>second</mail>
    </item>
  </regions>
</site>
"""


@pytest.fixture(scope="session")
def bib_doc():
    return load(BIB_XML, "bib.xml")


@pytest.fixture(scope="session")
def bib_summary(bib_doc):
    return build_enhanced_summary(bib_doc)


@pytest.fixture(scope="session")
def auction_doc():
    return load(AUCTION_XML, "auction.xml")


@pytest.fixture(scope="session")
def auction_summary(auction_doc):
    return build_enhanced_summary(auction_doc)


@pytest.fixture(scope="session")
def xmark_doc():
    return generate_xmark(scale=1, seed=0)


@pytest.fixture(scope="session")
def xmark_summary(xmark_doc):
    return build_enhanced_summary(xmark_doc)


@pytest.fixture(scope="session")
def dblp_doc():
    return generate_dblp(scale=1, seed=1)


@pytest.fixture(scope="session")
def dblp_summary(dblp_doc):
    return build_enhanced_summary(dblp_doc)
