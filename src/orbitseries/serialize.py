"""Lossless JSON encoding of the registry.

The export mirrors the record structure field by field; ``registry_from_json``
rebuilds equal SeriesRecord objects, which the round-trip test relies on.
Three fields keep the v0 schema rather than the objects' own shape: a
dimension formula is written as its integer [slope, intercept] pair; a
character formula as the lists num, den, num_plus, den_plus ([exponent,
multiplicity] pairs) and literal_den, derived from its body's factors in order
and rebuilt with ``pexpr``, which assembles the factors in that same order;
and a member's datum as the keys pair, partition and sl_pair, the one that
matches the datum's type set and the others null.
"""

from __future__ import annotations

from fractions import Fraction

from .exactpoly import Cyclo, LinExp, Literal, ProductExpr, QLaurent, pexpr
from .partitions import Family, Partition, PartitionPair
from . import seriesdb as db


def _frac(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _unfrac(v) -> Fraction:
    return Fraction(v[0], v[1])


def linexp_to_json(e: LinExp) -> dict:
    return {"c0": _frac(e.c0), "c1": _frac(e.c1)}


def linexp_from_json(d) -> LinExp:
    return LinExp(_unfrac(d["c0"]), _unfrac(d["c1"]))


def _affine_to_json(e: LinExp) -> list[int]:
    """An integral dimension formula as its v0 [slope, intercept] pair."""
    return [int(e.c1), int(e.c0)]


def _affine_from_json(v) -> LinExp:
    slope, intercept = v
    return LinExp(intercept, slope)


def qlaurent_to_json(p: QLaurent) -> list:
    return [list(t) for t in p.to_triples()]


def qlaurent_from_json(v) -> QLaurent:
    return QLaurent.from_triples(tuple(tuple(t) for t in v))


def product_to_json(e: ProductExpr) -> dict:
    factors = []
    for f, m in e.factors:
        if isinstance(f, Cyclo):
            factors.append({"kind": "cyclo", "exponent": linexp_to_json(f.exponent),
                            "sign": f.sign, "mult": m})
        else:
            factors.append({"kind": "literal", "value": qlaurent_to_json(f.value),
                            "mult": m})
    return {"constant": _frac(e.constant),
            "prefactor": linexp_to_json(e.prefactor_exponent),
            "factors": factors}


def product_from_json(d) -> ProductExpr:
    factors = []
    for f in d["factors"]:
        if f["kind"] == "cyclo":
            factors.append((Cyclo(linexp_from_json(f["exponent"]), f["sign"]),
                            f["mult"]))
        else:
            factors.append((Literal(qlaurent_from_json(f["value"])), f["mult"]))
    return ProductExpr(_unfrac(d["constant"]), linexp_from_json(d["prefactor"]),
                       tuple(factors))


def _partition_to_json(p: Partition | None):
    return None if p is None else list(p.parts)


def _partition_from_json(v) -> Partition | None:
    return None if v is None else Partition(tuple(v))


def _datum_to_json(datum) -> dict:
    """The v0 keys pair, partition and sl_pair; the datum's type picks its key."""
    keys = {"pair": None, "partition": None, "sl_pair": None}
    if isinstance(datum, PartitionPair):
        keys["pair"] = {"alpha": list(datum.alpha.parts), "beta": list(datum.beta.parts)}
    elif isinstance(datum, Partition):
        keys["partition"] = list(datum.parts)
    elif datum is not None:
        keys["sl_pair"] = [list(p.parts) for p in datum]
    return keys


def _datum_from_json(d):
    if d["pair"] is not None:
        return PartitionPair(Partition(d["pair"]["alpha"]), Partition(d["pair"]["beta"]))
    if d["partition"] is not None:
        return Partition(d["partition"])
    if d["sl_pair"] is not None:
        return tuple(Partition(p) for p in d["sl_pair"])
    return None


def member_to_json(m: db.Member) -> dict:
    return {"a": m.a, "ambient": m.ambient.name, "carter": m.carter,
            "h": m.h.name,
            "family": None if m.family is None else [m.family.kind, m.family.n],
            **_datum_to_json(m.datum)}


def member_from_json(d) -> db.Member:
    fam = None if d["family"] is None else Family(d["family"][0], d["family"][1])
    return db.Member(d["a"], db.reductive(d["ambient"]), d["carter"],
                     db.reductive(d["h"]), fam, _datum_from_json(d))


def _entries_from_json(v) -> tuple:
    return tuple((linexp_from_json(e), m) for e, m in v)


def character_to_json(c: db.CharacterFormula) -> dict:
    lists: dict[str, list] = {k: [] for k in ("num", "den", "num_plus", "den_plus",
                                              "literal_den")}
    for f, m in c.body.factors:
        if isinstance(f, Cyclo):
            key = ("num" if m > 0 else "den") + ("" if f.sign == 1 else "_plus")
            lists[key].append([linexp_to_json(f.exponent), abs(m)])
        elif m == -1:
            lists["literal_den"].append(qlaurent_to_json(f.value))
        else:
            raise ValueError(f"character {c.name}: factor {f}^{m} has no list")
    if c.body.prefactor_exponent != LinExp(0):
        raise ValueError(f"character {c.name}: the body carries a q-prefactor")
    return {"name": c.name, "constant": _frac(c.body.constant),
            "shift": linexp_to_json(c.shift), **lists,
            "a_values": list(c.a_values), "doubled_at": c.doubled_at}


def character_from_json(d) -> db.CharacterFormula:
    body = pexpr(_unfrac(d["constant"]), 0,
                 *(_entries_from_json(d[k]) for k in ("num", "den", "num_plus",
                                                      "den_plus")),
                 literal_den=[qlaurent_from_json(v) for v in d["literal_den"]])
    return db.CharacterFormula(d["name"], linexp_from_json(d["shift"]), body,
                               a_values=tuple(d["a_values"]),
                               doubled_at=d["doubled_at"])


def named_to_json(n: db.NamedDegree) -> dict:
    return {"a": n.a, "variant": n.variant, "label": n.label,
            "weyl_dim": n.weyl_dim, "b_index": n.b_index,
            "display": None if n.display is None else product_to_json(n.display)}


def named_from_json(d) -> db.NamedDegree:
    disp = None if d["display"] is None else product_from_json(d["display"])
    return db.NamedDegree(d["a"], d["variant"], d["label"], d["weyl_dim"],
                          d["b_index"], disp)


def record_to_json(rec: db.SeriesRecord) -> dict:
    return {
        "row": rec.row, "label": rec.label,
        "exponents": None if rec.exponents is None else list(rec.exponents),
        "dim_coeffs": _affine_to_json(rec.dim), "rad_coeffs": _affine_to_json(rec.rad),
        "members": [member_to_json(m) for m in rec.members],
        "so8_partition": _partition_to_json(rec.so8_partition),
        "so8_h": None if rec.so8_h is None else rec.so8_h.name,
        "fundamental_group": rec.fundamental_group,
        "folding": rec.folding,
        "grading_claims": [[i, linexp_to_json(e)] for i, e in rec.grading_claims],
        "grading_positive_count": rec.grading_positive_count,
        "pointcount_Y": None if rec.pointcount_Y is None else
        product_to_json(rec.pointcount_Y),
        "pointcount": None if rec.pointcount is None else
        product_to_json(rec.pointcount),
        "characters": [character_to_json(c) for c in rec.characters],
        "named_degrees": [named_to_json(n) for n in rec.named_degrees],
        "notes": list(rec.notes),
    }


def record_from_json(d) -> db.SeriesRecord:
    return db.SeriesRecord(
        row=d["row"], label=d["label"],
        exponents=None if d["exponents"] is None else tuple(d["exponents"]),
        dim=_affine_from_json(d["dim_coeffs"]), rad=_affine_from_json(d["rad_coeffs"]),
        members=tuple(member_from_json(m) for m in d["members"]),
        so8_partition=_partition_from_json(d["so8_partition"]),
        so8_h=None if d["so8_h"] is None else db.reductive(d["so8_h"]),
        fundamental_group=d["fundamental_group"], folding=d["folding"],
        grading_claims=tuple((i, linexp_from_json(e))
                             for i, e in d["grading_claims"]),
        grading_positive_count=d["grading_positive_count"],
        pointcount_Y=None if d["pointcount_Y"] is None else
        product_from_json(d["pointcount_Y"]),
        pointcount=None if d["pointcount"] is None else
        product_from_json(d["pointcount"]),
        characters=tuple(character_from_json(c) for c in d["characters"]),
        named_degrees=tuple(named_from_json(n) for n in d["named_degrees"]),
        notes=tuple(d["notes"]))


def registry_to_json() -> dict:
    return {"series": [record_to_json(r) for r in db.all_series()],
            "hasse_f4": [list(e) for e in db.hasse_edges()]}


def registry_from_json(data) -> tuple[db.SeriesRecord, ...]:
    return tuple(record_from_json(d) for d in data["series"])
