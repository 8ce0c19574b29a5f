"""Byte-level identity of the enumeration and of the conversions.

Each test hashes the sorted-key JSON of many outputs, so any change to a
canonical basis, a chart choice or a serialized byte shows as a new digest.
"""

import hashlib
import json
import random

from nestquiv import act, default_theta, enumerate_nested_monomial, nested_to_rep, rep_to_nested
from nestquiv.corpus import random_gauge
from nestquiv.stability import kernel_subrep


def _feed(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True).encode())


def test_enumeration_digest():
    h = hashlib.sha256()
    for n in range(1, 4):
        for c in range(1, 6):
            for cp in range(c):
                for k in (1, 2):
                    for pair in enumerate_nested_monomial(cp, c, charts=k, n=n):
                        _feed(h, pair.to_json())
    assert h.hexdigest() == "de1c93cbc00b68670a18b989016c670a23b7873a3a53ad91bd440505e1ef348b"


def test_conversion_digest():
    """nested_to_rep, then kernel_subrep and rep_to_nested of a gauge-scrambled copy."""
    rng = random.Random(10)
    h = hashlib.sha256()
    count = 0
    for n in range(1, 4):
        for c in range(2, 5):
            for cp in range(1, c):
                for pair in enumerate_nested_monomial(cp, c, charts=2, n=n):
                    x = nested_to_rep(pair, n)
                    y = act(random_gauge(rng, c, c - cp), x)
                    _feed(h, x.to_json())
                    _feed(h, kernel_subrep(y).to_json())
                    _feed(h, rep_to_nested(y, default_theta(c, cp)).to_json())
                    count += 1
    assert count == 432
    assert h.hexdigest() == "01ba76521255de98eb180a89e10b0b75a29d985e87afbd8ad03ad93cb078bcbf"
