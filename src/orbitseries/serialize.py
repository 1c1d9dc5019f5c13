"""Lossless JSON encoding of the registry.

Each record's JSON form is stated once, as a codec: a pair (encode, decode) of
plain functions.  ``_record`` builds a record's codec from one table that maps
each field to its JSON key (its own name unless renamed) and the codec of its
value; the writer and the reader both read that table.  ``_opt`` writes None
as null, ``_seq`` a tuple as a list.  ``registry_from_json`` rebuilds equal
SeriesRecord objects, which the round-trip test relies on.

A dimension formula is written as its integer v0 [slope, intercept] pair.
Three objects keep the v0 schema rather than their own shape, in hand-written
pairs: a character formula as the lists num, den, num_plus, den_plus
([exponent, multiplicity] pairs) and literal_den, derived from its body's
factors in order and rebuilt with ``pexpr``, which assembles the factors in
that same order; a member's datum as the keys pair, partition and sl_pair, the
one that matches the datum's type set and the others null (the reader derives
the datum from the label and refuses keys that differ); and a product's
factors each with its kind, "cyclo" or "literal".  A factor Phi_d(q) is written
as its polynomial, under literal_den or as a "literal" factor, and read back
as the one d with that polynomial; any other polynomial is refused.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, NamedTuple

from ._records import Family, Partition, PartitionPair
from .exactpoly import Cyclo, LinExp, ProductExpr, QLaurent, QPhi, pexpr
from . import seriesdb as db


class _Codec(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


_ID = _Codec(lambda v: v, lambda v: v)


def _opt(codec: _Codec) -> _Codec:
    """None as null, any other value by ``codec``."""
    return _Codec(lambda v: None if v is None else codec.encode(v),
                  lambda v: None if v is None else codec.decode(v))


def _seq(codec: _Codec) -> _Codec:
    """A tuple as a list, each item by ``codec``."""
    return _Codec(lambda v: [codec.encode(x) for x in v],
                  lambda v: tuple(codec.decode(x) for x in v))


def _record(make, renamed: dict[str, str] | None = None, /, **fields: _Codec) -> _Codec:
    """A record as an object: each field, in order, under the key ``renamed``
    gives it or else its own name, with its value by its codec; ``make``
    rebuilds the record from the decoded fields as keywords."""
    table = [(f, (renamed or {}).get(f, f), c.encode, c.decode) for f, c in fields.items()]
    return _Codec(lambda r: {key: enc(getattr(r, f)) for f, key, enc, _ in table},
                  lambda d: make(**{f: dec(d[key]) for f, key, _, dec in table}))


_FRAC = _Codec(lambda x: [x.numerator, x.denominator], lambda v: Fraction(*v))
_LINEXP = _record(LinExp, c0=_FRAC, c1=_FRAC)
_AFFINE = _Codec(lambda e: [int(e.c1), int(e.c0)], lambda v: LinExp(v[1], v[0]))
_PARTITION = _Codec(lambda p: list(p.parts), Partition)
_SPEC = _Codec(lambda s: s.name, db.reductive)
_FAMILY = _opt(_Codec(lambda f: [f.kind, f.n], lambda v: Family(*v)))


def qlaurent_to_json(p: QLaurent) -> list:
    return [list(t) for t in p.to_triples()]


def qphi_from_json(v) -> QPhi:
    """The factor Phi_d(q) whose polynomial the triples are; phi(d) >= sqrt(d/2),
    so d <= 2 deg^2.  Raises ValueError for any other polynomial."""
    value = QLaurent.from_triples(v)
    deg = value.t_degree() // 4     # ValueError for the zero polynomial
    phi = list(range(2 * deg * deg + 1))    # Euler's phi, the degree of Phi_d, sieved
    for d in range(1, len(phi)):
        if phi[d] == d > 1:     # d is prime, as no smaller prime divides it
            phi[d::d] = [k - k // d for k in phi[d::d]]
        if phi[d] == deg and QPhi(d).value == value:
            return QPhi(d)
    raise ValueError(f"{value} is not a cyclotomic polynomial Phi_d(q)")


def product_to_json(e: ProductExpr) -> dict:
    return {"constant": _FRAC.encode(e.constant),
            "prefactor": _LINEXP.encode(e.prefactor_exponent),
            "factors": [{"kind": "cyclo", "exponent": _LINEXP.encode(f.exponent),
                         "sign": f.sign, "mult": m} if isinstance(f, Cyclo) else
                        {"kind": "literal", "value": qlaurent_to_json(f.value), "mult": m}
                        for f, m in e.factors]}


def product_from_json(d) -> ProductExpr:
    factors = []
    for f in d["factors"]:
        if f["kind"] == "cyclo":
            factors.append((Cyclo(_LINEXP.decode(f["exponent"]), f["sign"]), f["mult"]))
        elif f["kind"] == "literal":
            factors.append((qphi_from_json(f["value"]), f["mult"]))
        else:
            raise ValueError(f"unknown factor kind {f['kind']!r}")
    return ProductExpr(_FRAC.decode(d["constant"]), _LINEXP.decode(d["prefactor"]),
                       tuple(factors))


_PRODUCT = _Codec(product_to_json, product_from_json)
# a member's datum: its key, its type and its encoder; the first match is
# written, and the reader derives the datum from the label
_DATUM = (("pair", PartitionPair,
           _record(PartitionPair, alpha=_PARTITION, beta=_PARTITION).encode),
          ("partition", Partition, _PARTITION.encode), ("sl_pair", tuple, _seq(_PARTITION).encode))


def member_to_json(m: db.Member) -> dict:
    datum = m.datum
    kind = next((key for key, cls, _ in _DATUM if isinstance(datum, cls)), None)
    return {"a": m.a, "ambient": _SPEC.encode(m.ambient), "carter": m.carter,
            "h": _SPEC.encode(m.h), "family": _FAMILY.encode(m.family),
            **{key: encode(datum) if key == kind else None for key, _, encode in _DATUM}}


def member_from_json(d) -> db.Member:
    """The member of the five fields; its datum is read from its label, and a
    file whose datum keys differ from what the writer writes is refused."""
    m = db.Member(d["a"], _SPEC.decode(d["ambient"]), d["carter"],
                  _SPEC.decode(d["h"]), _FAMILY.decode(d["family"]))
    written = member_to_json(m)
    if any(d[key] != written[key] for key, _, _ in _DATUM):
        raise ValueError(f"member {m.carter!r} at a={m.a}: the datum keys differ "
                         f"from its label")
    return m


def character_to_json(c: db.CharacterFormula) -> dict:
    lists: dict[str, list] = {k: [] for k in ("num", "den", "num_plus", "den_plus",
                                              "literal_den")}
    for f, m in c.body.factors:
        if isinstance(f, Cyclo):
            key = ("num" if m > 0 else "den") + ("" if f.sign == 1 else "_plus")
            lists[key].append([_LINEXP.encode(f.exponent), abs(m)])
        elif m == -1:
            lists["literal_den"].append(qlaurent_to_json(f.value))
        else:
            raise ValueError(f"character {c.name}: factor {f}^{m} has no list")
    if c.body.prefactor_exponent != LinExp(0):
        raise ValueError(f"character {c.name}: the body carries a q-prefactor")
    return {"name": c.name, "constant": _FRAC.encode(c.body.constant),
            "shift": _LINEXP.encode(c.shift), **lists,
            "a_values": list(c.a_values), "doubled_at": c.doubled_at}


def _multiplicity(m) -> int:
    """A list entry's multiplicity: the list says numerator or denominator, so
    the writer writes |m|, and anything but a positive integer is refused."""
    if type(m) is not int or m < 1:
        raise ValueError(f"factor multiplicity {m!r} is not a positive integer")
    return m


def character_from_json(d) -> db.CharacterFormula:
    body = pexpr(_FRAC.decode(d["constant"]), 0,
                 *([(_LINEXP.decode(e), _multiplicity(m)) for e, m in d[k]]
                   for k in ("num", "den", "num_plus", "den_plus")),
                 phi_den=[qphi_from_json(v).d for v in d["literal_den"]])
    return db.CharacterFormula(d["name"], _LINEXP.decode(d["shift"]), body,
                               a_values=tuple(d["a_values"]),
                               doubled_at=d["doubled_at"])


_NAMED = _record(db.NamedDegree, a=_ID, variant=_ID, label=_ID, weyl_dim=_ID,
                 b_index=_ID, display=_opt(_PRODUCT))
_SERIES = _record(
    db.SeriesRecord, {"dim": "dim_coeffs", "rad": "rad_coeffs"},
    row=_ID, label=_ID, exponents=_opt(_seq(_ID)), dim=_AFFINE, rad=_AFFINE,
    members=_seq(_Codec(member_to_json, member_from_json)),
    so8_partition=_opt(_PARTITION), so8_h=_opt(_SPEC),
    fundamental_group=_ID, folding=_ID,
    grading_claims=_seq(_Codec(lambda c: [c[0], _LINEXP.encode(c[1])],
                               lambda v: (v[0], _LINEXP.decode(v[1])))),
    grading_positive_count=_ID, pointcount_Y=_opt(_PRODUCT), pointcount=_opt(_PRODUCT),
    characters=_seq(_Codec(character_to_json, character_from_json)),
    named_degrees=_seq(_NAMED), notes=_seq(_ID))


def registry_to_json() -> dict:
    return {"series": [_SERIES.encode(r) for r in db.all_series()],
            "hasse_f4": [list(e) for e in db.hasse_edges()]}


def registry_from_json(data) -> tuple[db.SeriesRecord, ...]:
    return tuple(map(_SERIES.decode, data["series"]))
