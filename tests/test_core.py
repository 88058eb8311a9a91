import inspect
import json
import pickle
import re
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, strategies as st

import uninorms
from uninorms import (
    BinaryOperation,
    ContourPartition,
    FiniteChain,
    GSpec,
    LinearOrder,
    PropertyProfile,
    contour_partition,
    count_uninorms_by_neutral,
    fixture,
    format_table,
    isolated_points,
    make_operation,
    order_to_uninorm,
    parse_order,
    parse_table,
    parse_table_auto,
    restrict,
    table_from_json_dict,
    table_to_json_dict,
    uninorm_from_gspec,
    verify_theorem,
)
from uninorms.oracle import enumerate_conservative


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches the whole message only."""
    return f"^{re.escape(message)}$"


def max_op(n):
    return make_operation(n, [[max(x, y) for y in range(1, n + 1)]
                              for x in range(1, n + 1)])


def min_op(n):
    return make_operation(n, [[min(x, y) for y in range(1, n + 1)]
                              for x in range(1, n + 1)])


tables = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: make_operation(n, rows))
)


class TestFiniteChain:
    def test_size(self):
        assert FiniteChain(3).n == 3 and FiniteChain(3) == (3,)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=exactly("chain size must be a positive integer, got 0")):
            FiniteChain(0)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match=exactly("chain size must be a positive integer, got True")):
            FiniteChain(True)


def _first_parameter_is_n(obj) -> bool:
    if not callable(obj) or isinstance(obj, type):
        return False
    return next(iter(inspect.signature(obj).parameters), None) == "n"


# every public function whose first parameter is a chain size, found by its
# signature, so that a new one is covered with no edit here
_SIZED = sorted(name for name in uninorms.__all__
                if _first_parameter_is_n(getattr(uninorms, name)))
_BAD_SIZES = [0, -1, True, 2.0, 2.5]


class TestChainSizeGuard:
    """A bad chain size gets FiniteChain's one-line error at every entry point."""

    def test_the_entry_points_are_found(self):
        assert len(_SIZED) >= 11
        assert {"count_uninorms", "rectangles", "probe_open_questions"} <= set(_SIZED)

    @pytest.mark.parametrize("n", _BAD_SIZES)
    @pytest.mark.parametrize("name", _SIZED)
    def test_entry_point(self, name, n):
        func = getattr(uninorms, name)
        # 1 for each further argument without a default, such as e
        rest = [1 for p in list(inspect.signature(func).parameters.values())[1:]
                if p.default is p.empty]
        call = lambda: func(n, *rest)
        if inspect.isgeneratorfunction(func):
            items = call()  # a generator checks n on its first item
            call = lambda: next(items)
        with pytest.raises(ValueError, match=exactly(f"chain size must be a positive integer, got {n!r}")):
            call()

    @pytest.mark.parametrize("n", _BAD_SIZES)
    def test_verify_theorem(self, n):
        with pytest.raises(ValueError, match=exactly(f"chain size must be a positive integer, got {n!r}")):
            verify_theorem("main", n)


_ROOT = Path(__file__).resolve().parent.parent


def _readers() -> tuple[list[str], list[str]]:
    """The README and the demos, each one text; and the lines of the
    package's modules other than ``__init__.py``."""
    texts = [(_ROOT / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((_ROOT / "demos").glob("*.py"))]
    lines = [line for p in sorted((_ROOT / "src" / "uninorms").glob("*.py"))
             if p.name != "__init__.py" for line in p.read_text().splitlines()]
    return texts, lines


def _unused_exports() -> list[str]:
    """The names of ``uninorms.__all__`` that occur as a whole word neither in
    the README, nor in a demo, nor in a line of the package's modules other
    than ``__init__.py`` that is not the name's own def or class line."""
    texts, lines = _readers()
    unused = []
    for name in uninorms.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class) {re.escape(name)}\b")
        if not (any(word.search(t) for t in texts)
                or any(word.search(line) and not own.match(line) for line in lines)):
            unused.append(name)
    return unused


def _unused_methods() -> list[str]:
    """``Class.name`` for each public method or property defined in the body
    of a class of ``uninorms.__all__`` that no reader of ``_unused_exports``
    uses: a method must be called as ``.name(``, a property read as
    ``.name``."""
    texts, lines = _readers()
    texts.append("\n".join(lines))
    unused = []
    for owner in uninorms.__all__:
        cls = getattr(uninorms, owner)
        if not isinstance(cls, type):
            continue
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(attr, property):
                use = re.compile(rf"\.{re.escape(name)}\b")
            elif inspect.isfunction(attr) or isinstance(attr, (staticmethod, classmethod)):
                use = re.compile(rf"\.{re.escape(name)}\(")
            else:
                continue
            if not any(use.search(t) for t in texts):
                unused.append(f"{owner}.{name}")
    return unused


class TestPublicSurface:
    def test_no_export_is_a_module(self):
        assert [name for name in uninorms.__all__
                if isinstance(getattr(uninorms, name), ModuleType)] == []

    def test_every_export_is_used(self):
        # by a claim, a command or another module, a demo, or the README
        assert _unused_exports() == []

    def test_every_public_method_of_an_export_is_used(self):
        assert _unused_methods() == []


# entry point: (what, lo, a call that puts the value v where a chain element
# goes), each on the 3-chain; hi is 3 throughout
_ELEMENT_SITES = {
    "BinaryOperation": ("table entry", 1,
                        lambda v: BinaryOperation(FiniteChain(3), ((1, 2, 3), (2, 2, 3), (3, 3, v)))),
    "make_operation": ("table entry", 1,
                       lambda v: make_operation(3, [[1, 2, 3], [2, 2, 3], [3, 3, v]])),
    "LinearOrder": ("seq entry", 1, lambda v: LinearOrder(FiniteChain(3), [1, 2, v])),
    "GSpec e": ("neutral element", 1, lambda v: GSpec(FiniteChain(3), v, (v,))),
    "GSpec g": ("g value", 2, lambda v: GSpec(FiniteChain(3), 2, [v, 2])),
    "count_uninorms_by_neutral": ("neutral element", 1, lambda v: count_uninorms_by_neutral(3, v)),
    "restrict": ("subset element", 1, lambda v: restrict(max_op(3), [1, v])),
}


class TestElementGuard:
    """A value that is not a chain element gets the one element rule's
    one-line error at every entry point that takes one."""

    @pytest.mark.parametrize("v", [0, 4, True, 2.0, "1"])
    @pytest.mark.parametrize("site", _ELEMENT_SITES)
    def test_entry_point(self, site, v):
        what, lo, call = _ELEMENT_SITES[site]
        with pytest.raises(ValueError, match=exactly(f"{what} {v!r} is not an integer in {lo}..3")):
            call(v)

    @pytest.mark.parametrize("as_list,as_tuple", [
        (lambda: BinaryOperation(FiniteChain(2), [[1, 2], [2, 2]]),
         lambda: BinaryOperation(FiniteChain(2), ((1, 2), (2, 2)))),
        (lambda: make_operation(2, [[1, 2], [2, 2]]),
         lambda: make_operation(2, ((1, 2), (2, 2)))),
        (lambda: LinearOrder(FiniteChain(3), [2, 1, 3]),
         lambda: LinearOrder(FiniteChain(3), (2, 1, 3))),
        (lambda: GSpec(FiniteChain(4), 2, [3, 2]),
         lambda: GSpec(FiniteChain(4), 2, (3, 2))),
    ], ids=["BinaryOperation", "make_operation", "LinearOrder", "GSpec"])
    def test_list_fields_are_stored_as_tuples(self, as_list, as_tuple):
        built = as_list()
        assert built == as_tuple()
        assert hash(built) == hash(as_tuple())
        assert type(built[-1]) is tuple  # the table, seq or g

    def test_patchwork_of_a_list_g(self):
        assert (uninorm_from_gspec(GSpec(FiniteChain(3), 2, [3, 2]))
                == uninorm_from_gspec(GSpec(FiniteChain(3), 2, (3, 2))))

    def test_restrict_takes_an_iterator(self):
        sub, elements = restrict(max_op(3), iter([3, 1, 3]))
        assert elements == (1, 3)
        assert sub == max_op(2)


class TestMakeOperation:
    def test_one_element_chain(self):
        op = make_operation(1, [[1]])
        assert op(1, 1) == 1

    def test_max_table(self):
        assert max_op(3)(2, 3) == 3

    def test_projection_is_valid(self):
        op = make_operation(2, [[1, 1], [2, 2]])
        assert op(1, 2) == 1 and op(2, 1) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=exactly("table must be 3x3")):
            make_operation(3, [[1, 2], [2, 2]])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match=exactly("table entry 3 is not an integer in 1..2")):
            make_operation(2, [[1, 3], [2, 2]])

    def test_bool_entry(self):
        with pytest.raises(ValueError, match=exactly("table entry True is not an integer in 1..2")):
            make_operation(2, [[True, 2], [2, 2]])


class TestContourPartition:
    def test_fig1_classes(self):
        part = contour_partition(fixture("fig1"))
        assert part.values == (1, 2)
        assert part.classes == (((1, 2),), ((1, 1), (2, 1), (2, 2)))
        assert isolated_points(fixture("fig1")) == ((1, 2),)

    def test_one_element_chain(self):
        part = contour_partition(make_operation(1, [[1]]))
        assert part.classes == (((1, 1),),)

    def test_min_level_sets(self):
        part = contour_partition(min_op(3))
        assert part.values == (1, 2, 3)
        assert part.classes[0] == ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))
        assert part.classes[1] == ((2, 2), (2, 3), (3, 2))
        assert part.classes[2] == ((3, 3),)
        assert isolated_points(min_op(3)) == ((3, 3),)

    @given(tables)
    def test_partition_invariants(self, op):
        part = contour_partition(op)
        points = [p for cls in part.classes for p in cls]
        assert sorted(points) == [(x, y) for x in range(1, op.n + 1)
                                  for y in range(1, op.n + 1)]
        assert len(points) == len(set(points))
        assert list(part.values) == sorted(part.values)
        for cls, value in zip(part.classes, part.values):
            assert list(cls) == sorted(cls)
            assert all(op(x, y) == value for (x, y) in cls)


class TestRestrict:
    def test_max_restricts_to_max(self):
        sub, elements = restrict(max_op(3), {2, 3})
        assert elements == (2, 3)
        assert sub.table == max_op(2).table

    def test_closure_violation(self):
        with pytest.raises(ValueError, match="not closed"):
            restrict(fixture("fig2"), {1, 3})

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            restrict(max_op(2), set())

    def test_conservative_always_restricts(self):
        # closure under every nonempty subset characterizes conservativeness,
        # and the restriction evaluates like the relabeled original
        for op in enumerate_conservative(3):
            for mask in range(1, 8):
                subset = {v for v in (1, 2, 3) if mask >> (v - 1) & 1}
                sub, elements = restrict(op, subset)
                relabel = {v: i + 1 for i, v in enumerate(elements)}
                for x in elements:
                    for y in elements:
                        assert sub(relabel[x], relabel[y]) == relabel[op(x, y)]

    def test_restrict_rejects_foreign_elements(self):
        with pytest.raises(ValueError, match=exactly("subset element 5 is not an integer in 1..3")):
            restrict(max_op(3), {2, 5})

    def test_restrict_commutes_with_evaluation(self):
        op = fixture("fig11a")
        sub, elements = restrict(op, {1, 2, 3})
        relabel = {v: i + 1 for i, v in enumerate(elements)}
        for x in elements:
            for y in elements:
                assert sub(relabel[x], relabel[y]) == relabel[op(x, y)]


class TestTableFormats:
    def test_projection_text_pins_the_convention(self):
        op = make_operation(2, [[1, 1], [2, 2]])  # F(x, y) = x
        assert format_table(op) == "2\n1 2\n1 2\n"

    def test_text_round_trip_is_asymmetric_safe(self):
        op = fixture("fig8")
        assert parse_table(format_table(op)).table == op.table

    def test_comments_and_blank_lines_skipped(self):
        op = parse_table("# comment\n\n2\n1 2\n\n2 2\n")
        assert op.table == max_op(2).table

    def test_json_round_trip(self):
        op = fixture("fig14")
        assert table_from_json_dict(table_to_json_dict(op)).table == op.table

    def test_auto_detects_json(self):
        op = fixture("fig13")
        text = json.dumps(table_to_json_dict(op))
        assert parse_table_auto(text).table == op.table

    @given(tables)
    def test_round_trips(self, op):
        assert parse_table(format_table(op)).table == op.table
        assert table_from_json_dict(table_to_json_dict(op)).table == op.table

    @pytest.mark.parametrize("text", [
        "",
        "x\n1",
        "2\n1 2\n1",
        "2\n1 2\n1 2 2\n",
        "2\n1 a\n1 2\n",
        "3\n1 2\n",
        "{\"n\": 2}",
        "{bad json",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_table_auto(text)


# arbitrary JSON; objects whose "n" and "table" keys hold it; and k x k
# tables whose "n" is k, k as a float, a boolean or arbitrary JSON
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=20,
)
json_tables = st.fixed_dictionaries({"n": json_values, "table": json_values})
square_tables = st.integers(0, 3).flatmap(lambda k: st.fixed_dictionaries({
    "n": st.sampled_from([k, float(k), k == 1]) | json_values,
    "table": st.lists(st.lists(st.integers(-1, 5) | json_values, min_size=k, max_size=k),
                      min_size=k, max_size=k),
}))


class TestParseFuzz:
    """The parsers return a value or raise ValueError, whatever the input."""

    @given(st.text() | st.text(alphabet=" \n#-0123456789"))
    def test_arbitrary_text(self, text):
        for parse in (parse_table_auto, parse_order):
            try:
                parse(text)
            except ValueError:
                pass

    @given(json_values | json_tables | square_tables)
    def test_arbitrary_json(self, data):
        try:
            parse_table_auto(json.dumps(data))
        except ValueError:
            pass


class TestOrders:
    def test_order_round_trip(self):
        order = parse_order("2 3 4 1 5")
        assert order.seq == (2, 3, 4, 1, 5)
        assert order.seq.index(2) == 0 and order.seq.index(5) == 4
        assert order.seq.index(4) < order.seq.index(1)

    def test_a_line_of_more_than_640_digits_reads(self):
        # the 640-digit bound is on each number, not on the line
        seq = tuple(range(300, 0, -1))
        assert parse_order(" ".join(map(str, seq))).seq == seq

    def test_non_permutation_rejected(self):
        message = exactly("seq must be a permutation of 1..3, got (1, 2, 2)")
        with pytest.raises(ValueError, match=message):
            LinearOrder(FiniteChain(3), (1, 2, 2))
        with pytest.raises(ValueError, match=message):
            parse_order("1 2 2")

    def test_bool_entry_rejected(self):
        # True equals 1, and the order maximum would then write True into a
        # table it does not check
        with pytest.raises(ValueError, match=exactly("seq entry True is not an integer in 1..3")):
            order_to_uninorm(LinearOrder(FiniteChain(3), (True, 2, 3)))


class TestGSpec:
    def test_valid(self):
        GSpec(FiniteChain(4), 2, (3, 2))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match=exactly("g must be nonincreasing, got (2, 3)")):
            GSpec(FiniteChain(4), 2, (2, 3))

    def test_rejects_wrong_endpoint(self):
        with pytest.raises(ValueError, match=exactly("g(2) must equal 2, got 3")):
            GSpec(FiniteChain(4), 2, (3, 3))

    def test_rejects_out_of_band_values(self):
        with pytest.raises(ValueError, match=exactly("g value 2 is not an integer in 3..4")):
            GSpec(FiniteChain(4), 3, (2, 3, 3))

    def test_rejects_neutral_outside_the_chain(self):
        with pytest.raises(ValueError, match=exactly("neutral element 5 is not an integer in 1..4")):
            GSpec(FiniteChain(4), 5, (5, 5, 5, 5, 5))

    @pytest.mark.parametrize("e", [0, 4, True, 2.0])
    def test_rejects_a_neutral_element_not_an_int_in_the_chain(self, e):
        # the rule count_uninorms_by_neutral shares
        with pytest.raises(ValueError, match=exactly(f"neutral element {e!r} is not an integer in 1..3")):
            GSpec(FiniteChain(3), e, (e,))

    @pytest.mark.parametrize("e,g", [(1, (True,)), (2, (3, 2.0))])
    def test_rejects_a_non_int_g_value(self, e, g):
        with pytest.raises(ValueError, match=exactly(f"g value {g[-1]!r} is not an integer in {e}..3")):
            GSpec(FiniteChain(3), e, g)

    def test_rejects_g_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=exactly("g must be defined on 1..2")):
            GSpec(FiniteChain(4), 2, (2,))


# type: (its fields by name, built afresh on each call so that two calls give
# equal but distinct fields, and the repr text)
_VALUES = {
    FiniteChain: (lambda: {"n": 3}, "FiniteChain(n=3)"),
    BinaryOperation: (lambda: {"chain": FiniteChain(2), "table": ((1, 2), (2, 2))},
                      "BinaryOperation(chain=FiniteChain(n=2), table=((1, 2), (2, 2)))"),
    LinearOrder: (lambda: {"chain": FiniteChain(3), "seq": (2, 3, 1)},
                  "LinearOrder(chain=FiniteChain(n=3), seq=(2, 3, 1))"),
    GSpec: (lambda: {"chain": FiniteChain(4), "e": 2, "g": (3, 2)},
            "GSpec(chain=FiniteChain(n=4), e=2, g=(3, 2))"),
    ContourPartition: (lambda: {"chain": FiniteChain(2),
                                "classes": (((1, 1),), ((1, 2), (2, 1), (2, 2))),
                                "values": (1, 2)},
                       "ContourPartition(chain=FiniteChain(n=2), classes=(((1, 1),), "
                       "((1, 2), (2, 1), (2, 2))), values=(1, 2))"),
    PropertyProfile: (lambda: {"idempotent": True, "conservative": True, "symmetric": True,
                               "nondecreasing": True, "associative": True, "bisymmetric": True,
                               "neutral": 1, "isolated": ((1, 1),)},
                      "PropertyProfile(idempotent=True, conservative=True, symmetric=True, "
                      "nondecreasing=True, associative=True, bisymmetric=True, neutral=1, "
                      "isolated=((1, 1),))"),
}


class TestValueTypes:
    """The six value types are immutable named tuples: built by position or
    by keyword, shown, compared and hashed by their fields, and pickled."""

    @pytest.mark.parametrize("kind", list(_VALUES), ids=lambda kind: kind.__name__)
    def test_contract(self, kind):
        fields, text = _VALUES[kind]
        value = kind(*fields().values())
        assert type(value) is kind and repr(value) == text
        twin = kind(**fields())
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert tuple(value) == tuple(fields().values())
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is kind and copy == value
        name = next(iter(fields()))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1
