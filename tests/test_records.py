"""The records that ``sectors``, ``basis`` and ``shift`` print are written
from the integer rows of the sector table; each must equal the record
derived from the Fraction views of the same sector or basis element:
``ValidatedDatum.sectors`` for sectors, and
``ChenRuanRing.basis`` with ``degree_at`` for basis elements.  Checked on
the golden data and on drawn data, in both chambers."""

from __future__ import annotations

import argparse
import json

from hypothesis import given, settings

from crring import ChenRuanRing, QuotientDatum, cli, format_rational, validate_datum
from crring.quotient import CHAMBERS
from test_golden import DATA
from test_ring import data


def label_record(t) -> dict:
    return {"c": format_rational(t.c), "finite": list(t.finite)}


def sector_record(info) -> dict:
    return {
        "label": label_record(info.label),
        "fixed_set": sorted(info.fixed_set),
        "thetas": [format_rational(x) for x in info.thetas],
        "shift": format_rational(info.shift),
        "dim": info.dim,
    }


def printed(command, vd, **flags):
    text, code = command(argparse.Namespace(format="structured", **flags), vd)
    assert code == 0
    return json.loads(text)


def check_records(vd) -> None:
    for chamber in CHAMBERS:
        # the commands read the datum's own chamber
        vd = validate_datum(QuotientDatum(vd.weights, vd.finite, chamber))
        infos = vd.sectors()
        assert printed(cli._cmd_sectors, vd) == {"sectors": list(map(sector_record, infos))}
        for info in infos:
            shift = printed(cli._cmd_shift, vd, t=(info.label.c, info.label.finite))
            assert shift == sector_record(info), (chamber, info.label)
        ring = ChenRuanRing(vd)
        expected = [
            {"sector": label_record(e.sector), "eta_power": e.k, "degree": format_rational(ring.degree_at(i))}
            for i, e in enumerate(ring.basis())
        ]
        assert printed(cli._cmd_basis, vd) == {"basis": expected}, chamber


def test_records_match_the_fraction_views_on_the_golden_data():
    for path in DATA.values():
        check_records(cli._load(str(path)))


@settings(max_examples=60, deadline=None)
@given(data())
def test_records_match_the_fraction_views_on_drawn_data(vd):
    check_records(vd)
