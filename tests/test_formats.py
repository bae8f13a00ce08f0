import json
from enum import IntEnum
from fractions import Fraction

import pytest

from orbikit import (
    HodgeDiamond,
    InertiaComponent,
    OrbifoldPresentation,
    ParseError,
    ProjectiveQuotientSpec,
    PseudoReflectionError,
    ValidationError,
    assemble_diamond,
    build_kummer,
    build_projective_quotient,
    columns,
    hochschild_via_sectors,
)
from orbikit.cli import render_json
from orbikit.grades import grade_form
from orbikit.formats import (
    diamond_from_obj,
    diamond_to_obj,
    dumps,
    grade_from_json,
    grade_to_json,
    loads,
    presentation_from_obj,
    presentation_to_obj,
)
from support import K3_DIAMOND, expanded, random_fractional_diamonds, random_presentation, random_symmetric_diamond


def reference_dumps(obj) -> str:
    """The stdlib layout that `dumps` and `cli.render_json` must equal byte for byte."""
    return json.dumps(obj, indent=2, ensure_ascii=True)


class TestGrades:
    def test_integer_round_trip(self):
        assert grade_to_json(Fraction(2)) == 2
        assert grade_from_json(2, "t") == Fraction(2)

    def test_fraction_round_trip(self):
        assert grade_to_json(Fraction(3, 2)) == "3/2"
        assert grade_from_json("3/2", "t") == Fraction(3, 2)

    def test_non_lowest_terms_rejected(self):
        for text in ["2/4", "4/2", "3/2\n", " 3/2", "+3/2"]:
            with pytest.raises(ParseError, match="^t: "):
                grade_from_json(text, "t")

    def test_decimals_rejected(self):
        with pytest.raises(ParseError):
            grade_from_json(1.5, "t")
        with pytest.raises(ParseError):
            grade_from_json("1.5", "t")
        with pytest.raises(ParseError):
            grade_from_json("3e2", "t")

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            grade_from_json(True, "t")
        with pytest.raises(ParseError):
            grade_from_json("1/0", "t")
        with pytest.raises(ParseError):
            grade_from_json(None, "t")


class TestDiamondFiles:
    def test_round_trip_is_bit_exact(self, k3_diamond):
        text = dumps(diamond_to_obj("k3", k3_diamond))
        name, parsed = diamond_from_obj(loads(text))
        assert name == "k3" and parsed == k3_diamond
        assert dumps(diamond_to_obj(name, parsed)) == text

    def test_fractional_grades_serialize_as_strings(self):
        d = HodgeDiamond(3, {("3/2", "3/2"): 64})
        obj = diamond_to_obj("x", d)
        assert obj["entries"] == [{"p": "3/2", "q": "3/2", "h": 64}]
        assert json.loads(dumps(obj))["entries"][0]["p"] == "3/2"

    @pytest.mark.parametrize("name,d", [
        ("k3", K3_DIAMOND),
        ("fractional", HodgeDiamond(3, {(0, 0): 1, ("3/2", "3/2"): 64, ("1/3", "4/3"): 2, (3, 3): 1}, level=6)),
        ("empty", HodgeDiamond(2, {})),
        ("point", HodgeDiamond.point()),
        ('Kähler "K3"\n\tsurface \\ ∞ \U0001d54f', K3_DIAMOND),
        ("", HodgeDiamond(1, {(1, 0): 10**4000})),
    ])
    def test_direct_writer_equals_dumps(self, name, d):
        assert render_json(name, d) == reference_dumps(diamond_to_obj(name, d)) == dumps(diamond_to_obj(name, d))

    def test_direct_writer_equals_dumps_on_assembled_diamonds(self, rng):
        for _ in range(30):
            p = random_presentation(rng)
            d = assemble_diamond(p)
            assert render_json(p.name, d) == reference_dumps(diamond_to_obj(p.name, d)) == dumps(diamond_to_obj(p.name, d))

    def test_random_fractional_diamonds_read_back(self, rng):
        fractional = 0
        for d in random_fractional_diamonds(rng, 40):
            name, again = diamond_from_obj(loads(dumps(diamond_to_obj("d", d))))
            # A file stores no level: the read diamond's is its grades' lcm, as the public constructor gives.
            assert (name, again) == ("d", d) and again.level == HodgeDiamond(d.dim_n, d.entries).level
            fractional += not d.is_integer_graded()
        assert fractional > 20

    @pytest.mark.parametrize("entries", [
        [{"p": 2, "q": 0, "h": 1}],
        [{"p": "1/2", "q": "3/2", "h": 1}, {"p": "5/2", "q": "1/2", "h": 1}],
        [{"p": "1/2", "q": 0, "h": 1}],
        [{"p": "1/3", "q": "1/3", "h": 2}, {"p": 1, "q": "1/2", "h": -1}],
        [{"p": "-1/2", "q": "-1/2", "h": 1}],
    ], ids=["out_of_range", "fractional_out_of_range", "half_integer_difference", "negative_h", "negative_grade"])
    def test_integer_forms_fail_as_the_constructor_does(self, entries):
        with pytest.raises(ValidationError) as built:
            HodgeDiamond(1, {(e["p"], e["q"]): e["h"] for e in entries})
        with pytest.raises(ValidationError) as read:
            diamond_from_obj({"name": "d", "dim": 1, "entries": entries})
        assert type(read.value) is type(built.value) and str(read.value) == str(built.value)

    def test_negative_dimension_fails_as_the_constructor_does(self):
        with pytest.raises(ValidationError, match="^dimension must be a nonnegative integer, got -1$"):
            diamond_from_obj({"name": "d", "dim": -1, "entries": [{"p": 0, "q": 0, "h": 1}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            diamond_from_obj({"name": "x", "dim": 2, "entries": [], "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            diamond_from_obj({"name": "x", "entries": []})

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError):
            diamond_from_obj(
                {
                    "name": "x",
                    "dim": 1,
                    "entries": [{"p": 0, "q": 0, "h": 1}, {"p": 0, "q": 0, "h": 2}],
                }
            )

    def test_entry_validation_bubbles_up(self):
        with pytest.raises(ValidationError):
            diamond_from_obj({"name": "x", "dim": 1, "entries": [{"p": 2, "q": 2, "h": 1}]})


class TestOrbifoldFiles:
    def test_explicit_sectors_round_trip(self, kummer2, kummer3, p2_mu3):
        from orbikit import ProjectiveQuotientSpec, build_projective_quotient

        pn_trivial = build_projective_quotient(
            ProjectiveQuotientSpec(2, (), ()), name="pn_trivial"
        )
        for p in (kummer2, kummer3, p2_mu3, pn_trivial):
            text = dumps(presentation_to_obj(p))
            assert presentation_from_obj(loads(text)) == p

    def test_round_trip_random(self, rng):
        for _ in range(10):
            p = random_presentation(rng)
            assert presentation_from_obj(presentation_to_obj(p)) == p

    def test_count_shorthand_expands(self, kummer2):
        obj = {
            "name": "kummer2",
            "dim": 2,
            "sectors": [
                {
                    "order": 1,
                    "exponents": [0, 0],
                    "diamond": [
                        {"p": 0, "q": 0, "h": 1},
                        {"p": 0, "q": 2, "h": 1},
                        {"p": 1, "q": 1, "h": 4},
                        {"p": 2, "q": 0, "h": 1},
                        {"p": 2, "q": 2, "h": 1},
                    ],
                    "label": "untwisted",
                },
                {
                    "order": 2,
                    "exponents": [1, 1],
                    "diamond": [{"p": 0, "q": 0, "h": 1}],
                    "count": 16,
                    "label": "2-torsion point",
                },
            ],
        }
        p = presentation_from_obj(obj)
        assert len(expanded(p)) == 17
        assert p == kummer2
        assert assemble_diamond(p) == K3_DIAMOND

    def test_count_is_kept_and_written_back(self):
        from orbikit import build_kummer

        p = build_kummer(6)
        obj = presentation_to_obj(p)
        assert [s.get("count", 1) for s in obj["sectors"]] == [1, 4096]
        assert len(dumps(obj)) < 2500  # 2 395 bytes; 1.07 MB when every sector was listed
        again = presentation_from_obj(loads(dumps(obj)))
        assert again == p and len(again.sectors) == 2
        assert dumps(presentation_to_obj(again)) == dumps(obj)

    def test_pairs_are_not_merged_on_output(self, kummer2):
        obj = presentation_to_obj(kummer2)
        twice = {**obj, "sectors": [obj["sectors"][0]] + [{**obj["sectors"][1], "count": 8}] * 2}
        p = presentation_from_obj(twice)
        assert p == kummer2
        assert presentation_to_obj(p) == twice

    def test_generator_kummer(self, kummer2):
        p = presentation_from_obj({"family": "kummer", "params": {"torus_dim_n": 2}, "name": "kummer2"})
        assert p == kummer2

    def test_generator_projective(self, p2_mu3):
        obj = {
            "family": "projective_quotient",
            "params": {"proj_dim_n": 2, "cyclic_orders": [3], "weights": [[0, 1, 2]]},
            "name": "p2_mu3",
        }
        assert presentation_from_obj(obj) == p2_mu3

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            presentation_from_obj({"family": "weighted", "params": {}})

    def test_unknown_top_level_field(self):
        with pytest.raises(ParseError):
            presentation_from_obj({"name": "x", "dim": 0, "sectors": [], "note": "hi"})

    def test_unknown_sector_field(self):
        obj = {
            "name": "x",
            "dim": 0,
            "sectors": [{"order": 1, "exponents": [], "diamond": [{"p": 0, "q": 0, "h": 1}], "age": 0}],
        }
        with pytest.raises(ParseError):
            presentation_from_obj(obj)

    def test_unknown_params_field(self):
        with pytest.raises(ParseError):
            presentation_from_obj({"family": "kummer", "params": {"torus_dim_n": 2, "count": 3}})

    def test_bad_count_rejected(self):
        obj = {
            "name": "x",
            "dim": 0,
            "sectors": [{"order": 1, "exponents": [], "diamond": [{"p": 0, "q": 0, "h": 1}], "count": 0}],
        }
        with pytest.raises(ParseError):
            presentation_from_obj(obj)

    @pytest.mark.parametrize(
        "exponents,message",
        [
            ({"a": 1}, "sectors[0].exponents: expected a list of integers"),
            ("11", "sectors[0].exponents: expected a list of integers"),
            ([1, 1.0], "sectors[0].exponents: expected an integer, got 1.0"),
            ([True, 1], "sectors[0].exponents: expected an integer, got True"),
        ],
    )
    def test_bad_exponents_rejected(self, exponents, message):
        obj = {"name": "x", "dim": 2, "sectors": [{"order": 2, "exponents": exponents, "diamond": POINT_ENTRIES}]}
        with pytest.raises(ParseError) as exc:
            presentation_from_obj(obj)
        assert str(exc.value) == message

    def test_validation_errors_bubble_up(self):
        obj = {
            "name": "bad",
            "dim": 2,
            "sectors": [
                {"order": 1, "exponents": [0, 0], "diamond": [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}, {"p": 2, "q": 2, "h": 1}]},
                {"order": 2, "exponents": [1, 0], "diamond": [{"p": 0, "q": 0, "h": 1}]},
            ],
        }
        with pytest.raises(PseudoReflectionError):
            presentation_from_obj(obj)

    def test_invalid_json_text(self):
        with pytest.raises(ParseError):
            loads("{not json")
        with pytest.raises(ParseError, match="duplicate key 'p'"):
            loads('[{"p": 0, "q": 0, "h": 1, "p": 1}]')

    def test_canonical_sector_sorting(self, kummer2):
        obj = presentation_to_obj(kummer2)
        orders = [s["order"] for s in obj["sectors"]]
        assert orders == sorted(orders)
        assert orders[0] == 1


P2_ENTRIES = [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}, {"p": 2, "q": 2, "h": 1}]
POINT_ENTRIES = [{"p": 0, "q": 0, "h": 1}]


def _two_twisted(second):
    """P^2 with an isolated sector of order 3, then a second one whose coarse diamond is `second`."""
    return {
        "name": "x",
        "dim": 2,
        "sectors": [
            {"order": 1, "exponents": [0, 0], "diamond": P2_ENTRIES},
            {"order": 3, "exponents": [1, 2], "diamond": POINT_ENTRIES},
            {"order": 3, "exponents": [2, 1], "diamond": second},
        ],
    }


class TestSharedCoarseDiamonds:
    """A coarse diamond repeated across sectors is read once; every sector is still checked."""

    @pytest.mark.parametrize(
        "second,error,message",
        [
            # Equal to the point's entries under Python ==, invalid as JSON grades or dimensions.
            ([{"p": 0.0, "q": 0, "h": 1}], ParseError,
             "sectors[2].diamond[0]: not an exact rational grade: 0.0 (use int, Fraction or 'a/b' in lowest terms)"),
            ([{"p": 0, "q": False, "h": 1}], ParseError,
             "sectors[2].diamond[0]: not an exact rational grade: False (use int, Fraction or 'a/b' in lowest terms)"),
            ([{"p": 0, "q": 0, "h": True}], ParseError, "sectors[2].diamond[0]: expected an integer, got True"),
            ([{"p": 0, "q": 0, "h": 1.0}], ParseError, "sectors[2].diamond[0]: expected an integer, got 1.0"),
            (POINT_ENTRIES * 2, ParseError, "sectors[2].diamond[1]: duplicate entry at (0,0)"),
            ([{"p": 0, "q": 0, "h": -1}], ValidationError, "negative dimension h^{0,0} = -1"),
        ],
        ids=["float_grade", "bool_grade", "bool_h", "float_h", "duplicate", "negative_h"],
    )
    def test_a_repeat_accepts_nothing_new(self, second, error, message):
        presentation_from_obj(_two_twisted(POINT_ENTRIES))
        with pytest.raises(error) as exc:
            presentation_from_obj(_two_twisted(second))
        assert type(exc.value) is error and str(exc.value) == message

    def test_same_entries_under_a_smaller_coarse_dimension_are_checked_again(self):
        obj = {
            "name": "x",
            "dim": 2,
            "sectors": [
                {"order": 1, "exponents": [0, 0], "diamond": P2_ENTRIES},
                {"order": 3, "exponents": [1, 2], "diamond": P2_ENTRIES},
            ],
        }
        with pytest.raises(ValidationError) as exc:
            presentation_from_obj(obj)
        assert type(exc.value) is ValidationError and str(exc.value) == "grade (1,1) outside [0, 0]"

    def test_equal_grades_in_other_spellings_share_one_diamond(self):
        p = presentation_from_obj(_two_twisted([{"p": "0", "q": "0/1", "h": 1}]))
        assert p.sectors[1][0].coarse_diamond is p.sectors[2][0].coarse_diamond

    def test_different_values_do_not_share(self):
        p = presentation_from_obj(_two_twisted([{"p": 0, "q": 0, "h": 2}]))
        assert p.sectors[2][0].coarse_diamond == HodgeDiamond(0, {(0, 0): 2})

    @pytest.mark.parametrize(
        "p,distinct_max",
        [
            (build_projective_quotient(ProjectiveQuotientSpec(3, (101,), ((0, 1, 2, 12),)), name="p3_z101"), 4),
            (build_kummer(3), 4),
        ],
        ids=["p3_z101", "kummer3"],
    )
    def test_parsed_presentations_share_coarse_diamonds(self, p, distinct_max):
        obj = loads(dumps(presentation_to_obj(p)))
        if len(obj["sectors"]) == 2:  # a count file: split the twisted count over four sectors
            untwisted, twisted = obj["sectors"]
            obj["sectors"] = [untwisted] + [{**twisted, "count": twisted["count"] // 4}] * 4
        again = presentation_from_obj(obj)
        assert again == p
        assert len(again.sectors) == len(obj["sectors"]) > distinct_max
        assert len({id(c.coarse_diamond) for c, _ in again.sectors}) <= distinct_max
        assert hochschild_via_sectors(again) == columns(assemble_diamond(again))

    def test_sectors_sharing_a_coarse_diamond_share_one_written_entry_list(self):
        p = build_projective_quotient(ProjectiveQuotientSpec(3, (101,), ((0, 1, 2, 12),)), name="p3_z101")
        obj = presentation_to_obj(p)
        shared = {id(c.coarse_diamond) for c, _ in p.sectors}
        assert len({id(s["diamond"]) for s in obj["sectors"]}) == len(shared) < len(p.sectors)
        for (c, _), s in zip(sorted(p.sectors, key=lambda s: s[0].sort_key()), obj["sectors"], strict=True):
            assert s["diamond"] == diamond_to_obj("", c.coarse_diamond)["entries"]
        assert presentation_from_obj(loads(dumps(obj))) == p


ISOLATED = {"order": 3, "exponents": [2, 1], "diamond": POINT_ENTRIES, "count": 1, "label": "pt"}
GRADE_ERROR = "not an exact rational grade: {} (use int, Fraction or 'a/b' in lowest terms)"


def _last_sector(sector):
    """`_two_twisted(POINT_ENTRIES)` with its last sector replaced by `sector`."""
    obj = _two_twisted(POINT_ENTRIES)
    obj["sectors"][2] = sector
    return obj


def _entry(**fields):
    return [{**POINT_ENTRIES[0], **fields}]


# One fault per field of a sector or an entry; every message is the one the checked reader gave before it
# tested valid shapes first, and of two faults the field read first still wins.
SECTOR_FAULTS = {
    "order_float": ({**ISOLATED, "order": 3.0}, "sectors[2].order: expected an integer, got 3.0"),
    "order_bool": ({**ISOLATED, "order": True}, "sectors[2].order: expected an integer, got True"),
    "exponents_not_list": ({**ISOLATED, "exponents": 21}, "sectors[2].exponents: expected a list of integers"),
    "exponent_float": ({**ISOLATED, "exponents": [2, 1.0]}, "sectors[2].exponents: expected an integer, got 1.0"),
    "exponent_bool": ({**ISOLATED, "exponents": [2, True]}, "sectors[2].exponents: expected an integer, got True"),
    "count_zero": ({**ISOLATED, "count": 0}, "sectors[2].count: must be >= 1, got 0"),
    "count_true": ({**ISOLATED, "count": True}, "sectors[2].count: expected an integer, got True"),
    "count_float": ({**ISOLATED, "count": 1.0}, "sectors[2].count: expected an integer, got 1.0"),
    "label_int": ({**ISOLATED, "label": 7}, "sectors[2].label: expected a string, got 7"),
    "label_surrogate": ({**ISOLATED, "label": "p\ud800t"}, "sectors[2].label: not UTF-8 text (a lone surrogate in 'p\\ud800t')"),
    "unknown_key": ({**ISOLATED, "age": 1}, "sectors[2]: unknown field(s) ['age']"),
    "missing_key": ({k: v for k, v in ISOLATED.items() if k != "exponents"}, "sectors[2]: missing field(s) ['exponents']"),
    "sector_not_object": ([3, [2, 1]], "sectors[2]: expected an object, got list"),
    "entry_not_object": ({**ISOLATED, "diamond": [[0, 0, 1]]}, "sectors[2].diamond[0]: expected an object, got list"),
    "entry_without_h": ({**ISOLATED, "diamond": [{"p": 0, "q": 0}]}, "sectors[2].diamond[0]: missing field(s) ['h']"),
    "grade_not_lowest": ({**ISOLATED, "diamond": _entry(p="2/4")}, "sectors[2].diamond[0]: " + GRADE_ERROR.format("'2/4'")),
    "grade_space": ({**ISOLATED, "diamond": _entry(q=" 1")}, "sectors[2].diamond[0]: " + GRADE_ERROR.format("' 1'")),
    "grade_float": ({**ISOLATED, "diamond": _entry(p=1.5)}, "sectors[2].diamond[0]: " + GRADE_ERROR.format("1.5")),
    "duplicate_half": ({**ISOLATED, "diamond": [{"p": "1/2", "q": "1/2", "h": 1}] * 2},
                       "sectors[2].diamond[1]: duplicate entry at (1/2,1/2)"),
    "order_and_label": ({**ISOLATED, "order": 3.0, "label": 7}, "sectors[2].order: expected an integer, got 3.0"),
    "diamond_before_count": ({**ISOLATED, "count": 0, "diamond": _entry(h=1.0)},
                             "sectors[2].diamond[0]: expected an integer, got 1.0"),
    "keys_before_exponents": ({**ISOLATED, "exponents": "21", "age": 1}, "sectors[2]: unknown field(s) ['age']"),
}

ENTRY_FAULTS = {
    "entries_not_list": ({"p": 0}, "entries: expected a list of {p, q, h} objects"),
    "entry_not_object": ([[0, 0, 1]], "entries[0]: expected an object, got list"),
    "entry_without_h": ([{"p": 0, "q": 0}], "entries[0]: missing field(s) ['h']"),
    "unknown_entry_key": ([{**POINT_ENTRIES[0], "r": 1}], "entries[0]: unknown field(s) ['r']"),
    "h_bool": (_entry(h=True), "entries[0]: expected an integer, got True"),
    "grade_not_lowest": (_entry(p="2/4"), "entries[0]: " + GRADE_ERROR.format("'2/4'")),
    "grade_space": (_entry(q=" 1"), "entries[0]: " + GRADE_ERROR.format("' 1'")),
    "grade_float": (_entry(p=1.5), "entries[0]: " + GRADE_ERROR.format("1.5")),
    "grade_bool": (_entry(q=False), "entries[0]: " + GRADE_ERROR.format("False")),
    "duplicate_half": ([{"p": "1/2", "q": "1/2", "h": 1}] * 2, "entries[1]: duplicate entry at (1/2,1/2)"),
    # Two spellings of one grade, one of them not JSON as a library caller may pass it, and a bool next to an int.
    "duplicate_int_and_string": ([*POINT_ENTRIES, {"p": 1, "q": 1, "h": 1}, {"p": 0, "q": 1, "h": 1},
                                  {"p": 1, "q": "1", "h": 2}], "entries[3]: duplicate entry at (1,1)"),
    "duplicate_string_and_fraction": ([*POINT_ENTRIES, {"p": "1/2", "q": "1/2", "h": 1}, {"p": 0, "q": 1, "h": 1},
                                       {"p": Fraction(1, 2), "q": Fraction(1, 2), "h": 2}],
                                      "entries[3]: duplicate entry at (1/2,1/2)"),
    "grade_true": (_entry(p=True), "entries[0]: " + GRADE_ERROR.format("True")),
    # One spelling per grade: no leading zero and no "-0", though "0/1" stays.
    "grade_leading_zero": (_entry(p="01"), "entries[0]: " + GRADE_ERROR.format("'01'")),
    "grade_denominator_leading_zero": (_entry(q="1/02"), "entries[0]: " + GRADE_ERROR.format("'1/02'")),
    "grade_minus_zero": (_entry(p="-0"), "entries[0]: " + GRADE_ERROR.format("'-0'")),
    "grade_minus_zero_over_one": (_entry(q="-0/1"), "entries[0]: " + GRADE_ERROR.format("'-0/1'")),
}


class TestFieldFaults:
    """Valid shapes pass plain type tests; each fault still raises its exact message, field by field."""

    def test_the_unfaulted_sector_is_read(self):
        p = presentation_from_obj(_last_sector(ISOLATED))
        assert p.sectors[2] == (InertiaComponent(3, (2, 1), HodgeDiamond.point(), label="pt"), 1)

    @pytest.mark.parametrize("sector,message", SECTOR_FAULTS.values(), ids=SECTOR_FAULTS.keys())
    def test_a_sector_fault_is_named(self, sector, message):
        with pytest.raises(ParseError) as exc:
            presentation_from_obj(_last_sector(sector))
        assert type(exc.value) is ParseError and str(exc.value) == message

    @pytest.mark.parametrize("entries,message", ENTRY_FAULTS.values(), ids=ENTRY_FAULTS.keys())
    def test_a_diamond_file_entry_fault_is_named(self, entries, message):
        with pytest.raises(ParseError) as exc:
            diamond_from_obj({"name": "d", "dim": 1, "entries": entries})
        assert type(exc.value) is ParseError and str(exc.value) == message

    def test_a_half_grade_reaches_the_diamond_check(self):
        with pytest.raises(ValidationError) as exc:
            presentation_from_obj(_last_sector({**ISOLATED, "diamond": _entry(p="1/2")}))
        assert type(exc.value) is ValidationError and str(exc.value) == "grade (1/2,0) outside [0, 0]"


class TestGradeParsing:
    """An integer grade is read as it is; each distinct grade string is parsed once per entry list, by `grade_form`."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return grade_form(text)

        monkeypatch.setattr("orbikit.formats.grade_form", counting)
        return calls

    def test_integer_grades_are_not_parsed(self, parsed):
        p = build_projective_quotient(ProjectiveQuotientSpec(3, (101,), ((0, 1, 2, 12),)), name="p3_z101")
        assert presentation_from_obj(loads(dumps(presentation_to_obj(p)))) == p
        assert diamond_from_obj(loads(dumps(diamond_to_obj("k3", K3_DIAMOND)))) == ("k3", K3_DIAMOND)
        assert parsed == []

    def test_each_distinct_grade_string_is_parsed_once(self, parsed):
        d = assemble_diamond(build_projective_quotient(ProjectiveQuotientSpec(2, (101,), ((0, 1, 5),))))
        obj = loads(dumps(diamond_to_obj("x", d)))
        strings = [g for e in obj["entries"] for g in (e["p"], e["q"]) if isinstance(g, str)]
        assert diamond_from_obj(obj) == ("x", d)
        assert sorted(parsed) == sorted(set(strings)) and len(strings) > len(set(strings)) > 100

    def test_a_grade_string_is_parsed_once_per_entry_list(self, parsed):
        obj = _two_twisted([{"p": "0", "q": "0", "h": 1}])
        obj["sectors"][1]["diamond"] = [{"p": "0", "q": 0, "h": 1}]
        p = presentation_from_obj(obj)
        assert parsed == ["0", "0"] and p.sectors[1][0].coarse_diamond is p.sectors[2][0].coarse_diamond


class Degree(IntEnum):
    ONE = 1


# Grades a library caller may pass in an object that is not parsed JSON, each with its JSON spelling.
LIBRARY_GRADES = {
    "fraction_half": ({"p": Fraction(1, 2), "q": Fraction(1, 2), "h": 3}, {"p": "1/2", "q": "1/2", "h": 3}),
    "fraction_whole": ({"p": Fraction(2), "q": Fraction(2), "h": 1}, {"p": 2, "q": 2, "h": 1}),
    "int_enum": ({"p": Degree.ONE, "q": Degree.ONE, "h": 1}, {"p": 1, "q": 1, "h": 1}),
    "int_and_string": ({"p": 1, "q": "1", "h": 1}, {"p": 1, "q": 1, "h": 1}),
}
INTEGRAL = {k: v for k, v in LIBRARY_GRADES.items() if k != "fraction_half"}


class TestLibraryGrades:
    """The readers take any grade `as_grade` takes, as a library caller may pass it, and read it as its JSON spelling."""

    @pytest.mark.parametrize("entry,spelled", LIBRARY_GRADES.values(), ids=LIBRARY_GRADES.keys())
    def test_a_diamond_file_reads_the_grade_as_its_json_spelling(self, entry, spelled):
        read = diamond_from_obj({"name": "d", "dim": 2, "entries": [POINT_ENTRIES[0], entry]})
        assert read == diamond_from_obj({"name": "d", "dim": 2, "entries": [POINT_ENTRIES[0], spelled]})

    @pytest.mark.parametrize("entry,spelled", INTEGRAL.values(), ids=INTEGRAL.keys())
    def test_a_sector_diamond_reads_the_grade_as_its_json_spelling(self, entry, spelled):
        def untwisted(last):
            obj = _two_twisted(POINT_ENTRIES)
            obj["sectors"][0]["diamond"] = [POINT_ENTRIES[0], last]
            return obj

        assert presentation_from_obj(untwisted(entry)) == presentation_from_obj(untwisted(spelled))

    def test_a_fractional_sector_grade_is_refused_by_the_sector_rule(self):
        obj = _two_twisted(POINT_ENTRIES)
        obj["sectors"][0]["diamond"] = P2_ENTRIES + [LIBRARY_GRADES["fraction_half"][0]]
        with pytest.raises(ValidationError) as exc:
            presentation_from_obj(obj)
        assert type(exc.value) is ValidationError and str(exc.value) == "coarse-space diamond must have integer grades only"


LABEL = 'Kähler "K3"\n\tsurface \\ ∞ \U0001d54f \x7f\u2028'


class TestWriter:
    """`dumps` equals the stdlib's indented layout byte for byte."""

    def test_labels_counts_and_names_with_escapes(self):
        coarse = HodgeDiamond(0, {(0, 0): 1})
        p = OrbifoldPresentation(2, [
            (InertiaComponent(1, (0, 0), HodgeDiamond.projective_space(2), label=LABEL), 1),
            (InertiaComponent(3, (1, 2), coarse, label='quote " and backslash \\'), 3),
            (InertiaComponent(3, (2, 1), coarse, label="new\nline"), 3),
        ], name=LABEL)
        obj = presentation_to_obj(p)
        assert [s.get("count", 1) for s in obj["sectors"]] == [1, 3, 3]
        assert dumps(obj) == reference_dumps(obj)
        assert presentation_from_obj(loads(dumps(obj))) == p

    def test_trivial_group_and_count_files(self):
        for p in (build_projective_quotient(ProjectiveQuotientSpec(2, (), ()), name="pn_trivial"), build_kummer(5)):
            obj = presentation_to_obj(p)
            assert dumps(obj) == reference_dumps(obj)

    def test_random_presentations(self, rng):
        for _ in range(30):
            obj = presentation_to_obj(random_presentation(rng))
            assert dumps(obj) == reference_dumps(obj)

    def test_scalars_and_empty_containers(self):
        obj = {"t": True, "f": False, "n": None, "big": -(10**300), "empty_list": [], "empty_object": {},
               "nested": [[], {}, [[]], {"": {}}], "": "", "keys \"with\" \u00e9scapes\n": [0]}
        assert dumps(obj) == reference_dumps(obj)
        assert dumps({}) == "{}"

    def test_a_list_repeated_at_one_depth_and_at_another(self, rng):
        shared = [1, {"x": "y", "z": [2, 3]}, "w"]
        entries = diamond_to_obj("x", random_symmetric_diamond(rng, 3))["entries"]
        obj = {"a": shared, "b": shared, "c": [shared, {"d": shared}], "e": [entries] * 2, "f": entries}
        assert dumps(obj) == reference_dumps(obj)
