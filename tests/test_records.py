"""The value classes behave as the dataclasses they replaced.

For each class: == over its fields in order, and only with an instance of
the same class; the hash of the fields' tuple for a frozen class, none for a
mutable one; repr Name(f=v, ...); assignment and deletion refused on a
frozen class; a fresh default for each instance where the field used a
default factory; and each check of the old __post_init__ raising the same
code and detail.  GroupHom compares and hashes by identity.  Record's one
constructor sets the fields: no record writes an __init__ that only copies
its parameters, and only records.py calls object.__setattr__.  Likewise
caller integers have one reader: only groups.read_integers catches
OverflowError, so no entry point grows its own cast; and a zero symbol entry
is refused where it is made: only FieldElem.__init__ tests a payload for 0.
Each number rule has one owner: only arith.py names is_prime (everyone
else reads p with arith.read_prime), only arith.py divides a prime out in a
`while n % p == 0` loop (everyone else calls arith.valuation), and no one
calls read_integers with ndim=0 (one integer goes through errors.read_int).
A group's table is searched for the identity only where inverses are
found: Group._validate, Group.inverses, Group.conjugations (conjugation by
the generators, which the center, normality and the normal closures read)
and cocycle_of_extension.  A coset's least element is found only by
groups.right_cosets, which quotient, the transfer, raise_lower and the
normal-subgroup joins read.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pgal.autoreal import Edge, MultiplicityBound
from pgal.catalog import build_group
from pgal.cohomology import Cocycle2, ExtensionClass, H2Result, extension_of_cocycle, h2_enumerate
from pgal.errors import PgalError
from pgal.fpmodules import FpGModule, NormData
from pgal.groups import DualActionData, GroupHom, StructureInvariants, structure_invariants
from pgal.kummer import Atom, GroupRingElem, Layer, SolutionExpr, SolutionFamily, ring_one
from pgal.obstructions import DiagonalForm, DirectFactorInput, LedetInput, MassyInput
from pgal.symbols import FieldElem, SymbolProduct, ind, rat

G = build_group("C:4")
INV = structure_invariants(G)
EXT = extension_of_cocycle(Cocycle2(G, 2, np.zeros((4, 4), dtype=np.int64)))
H2 = h2_enumerate(G, 2)
SWAP = {"s": [[0, 1], [1, 0]]}

# class, its fields in order, frozen, the arguments of one instance, of an unequal one
CLASSES = [
    (FieldElem, ("kind", "payload"), True, ("rat", Fraction(3)), ("ind", "x")),
    (SymbolProduct, ("p", "factors", "opaque"), True,
     (2, ((rat(2), rat(3)),), ()), (3, (), (("K", 1),))),
    (MassyInput, ("p", "a", "d"), False,
     (2, [rat(2), rat(3)], {(1, 2): 1}), (2, [rat(2), rat(3)])),
    (DirectFactorInput, ("p", "res_class", "b", "j", "a", "d"), False,
     (3, "res", rat(6), 1, [ind("a1")], [2]), (3, "res", rat(6))),
    (LedetInput, ("p", "resN_class", "resH_class", "a", "b", "d"), False,
     (2, "rn", "rh", [rat(3)], [rat(5)], {(1, 1): 1}), (2, None, None)),
    (DiagonalForm, ("entries",), False, ([rat(2), rat(3)],), ([rat(2)],)),
    (GroupRingElem, ("n", "coeffs"), True, (3, (1, 0, 2)), (3, (0, 0, 0))),
    (Atom, ("base", "ring_exp", "frac_exp"), True,
     ("w", ring_one(3)), ("a1", None, Fraction(-1, 3))),
    (Layer, ("radicand", "degree"), True, ((Atom("w"),), 3), ((), 2)),
    (SolutionExpr, ("layers", "free_scalar", "condition"), True,
     ((Layer((Atom("w"),), 3),), "f", "N(w)=a2"), ((),)),
    (SolutionFamily, ("base", "scalar"), True, (SolutionExpr(()), "g"), (SolutionExpr(()),)),
    (FpGModule, ("p", "n", "d"), False, (3, 1, {3: 1, 1: 0}), (3, 1)),
    (NormData, ("p", "n", "dims", "i_invariant", "base_quotient_finite"), False,
     (3, 1, {1: 2, 2: 1, 3: 1}), (3, 1, {1: 2, 2: 1, 3: 1}, 0, False)),
    (Edge, ("src", "dst", "cite"), True, ("C:4", "D:8", "cite"), ("C:4", "D:8", "other")),
    (MultiplicityBound, ("spec", "k", "bound"), False, ("C:9", 2, 9), ("C:9", 3, 27)),
    (GroupHom, ("source", "target", "images"), True,
     (G, G, np.arange(4)), (G, build_group("C:1"), np.zeros(4, dtype=np.int64))),
    (StructureInvariants, ("center", "exponent", "element_orders", "min_generators"), False,
     (INV.center, INV.exponent, INV.element_orders, INV.min_generators),
     (INV.center, 2, INV.element_orders, INV.min_generators)),
    (DualActionData, ("orders", "action", "cyclo"), False,
     ((2, 2), SWAP, {"s": 1}), ((2, 2), SWAP, {})),
    (ExtensionClass, ("cocycle", "extension", "proj", "kernel_gen"), False,
     (EXT.cocycle, EXT.extension, EXT.proj, EXT.kernel_gen),
     (EXT.cocycle, EXT.extension, EXT.proj, 0)),
    (H2Result, ("dimension", "class_count", "representatives", "complete"), False,
     (H2.dimension, H2.class_count, H2.representatives, H2.complete),
     (H2.dimension, H2.class_count, H2.representatives, not H2.complete)),
]

IDS = [row[0].__name__ for row in CLASSES]


@pytest.mark.parametrize("cls,fields,frozen,args,other", CLASSES, ids=IDS)
def test_a_record_compares_hashes_and_prints_by_its_fields(cls, fields, frozen, args, other):
    x, y, z = cls(*args), cls(*args), cls(*other)
    values = tuple(getattr(x, f) for f in fields)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{cls.__name__}({body})"
    assert x == x and x != z and x != values and x.__eq__(values) is NotImplemented
    if cls is GroupHom:  # identity, as with eq=False
        assert x != y and hash(x) == object.__hash__(x)
    elif frozen:
        assert x == y and hash(x) == hash(y) == hash(values)
    else:
        assert x == y
        with pytest.raises(TypeError):
            hash(x)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(x, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(x, fields[-1])
        with pytest.raises(AttributeError):
            x.extra = 1
        assert tuple(getattr(x, f) for f in fields) == values
    else:
        setattr(x, fields[-1], values[-1])


@pytest.mark.parametrize("cls,args,fields", [
    (MassyInput, (2, [rat(2)]), ("d",)),
    (DirectFactorInput, (3, "res", rat(6)), ("a", "d")),
    (LedetInput, (2, None, None), ("a", "b", "d")),
    (FpGModule, (3, 1), ("d",)),
], ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_each_instance_gets_its_own_default(cls, args, fields):
    x, y = cls(*args), cls(*args)
    for f in fields:
        assert not getattr(x, f) and getattr(x, f) is not getattr(y, f)


@pytest.mark.parametrize("build,code,detail", [
    (lambda: FieldElem("rat", Fraction(0)), "ZeroEntry", "0 is not allowed in symbols"),
    (lambda: MassyInput(2, []), "ZeroEntry", "need at least one a_i"),
    (lambda: MassyInput(2, [rat(2)], {(1, 2): 1}), "BadFamily", "bad index pair (1, 2)"),
    (lambda: DirectFactorInput(3, "res"), "ZeroEntry", "b is required"),
    (lambda: DirectFactorInput(3, "res", rat(6), a=[ind("a1")]), "BadFamily",
     "a and d must have matching lengths"),
    (lambda: LedetInput(2, None, None, a=[rat(3)], d={(1, 1): 1}), "BadFamily",
     "bad index pair (1, 1)"),
    (lambda: DiagonalForm([]), "ZeroEntry", "a diagonal form needs at least one entry"),
    (lambda: GroupRingElem(3, (1, 2)), "BadI", "need 3 coefficients, got 2"),
    (lambda: FpGModule(2, 13), "OrderTooLarge", "order 8192 exceeds cap 4096"),
    (lambda: FpGModule(3, 1, {4: 1}), "BadIndex",
     "summand length 4 outside 1..3 or negative multiplicity"),
    (lambda: FpGModule(3, 1, {1: -1}), "BadIndex",
     "summand length 1 outside 1..3 or negative multiplicity"),
    (lambda: NormData(2, 13, {}), "OrderTooLarge", "order 8192 exceeds cap 4096"),
    (lambda: NormData(3, 1, {1: 2, 2: 2}), "Mismatch", "missing norm dimension for i=3"),
    (lambda: NormData(3, 1, {1: -1, 2: 0, 3: 0}), "Mismatch",
     "norm dimensions must be non-negative"),
    (lambda: NormData(3, 1, {1: 2, 2: 2, 3: 1}), "Mismatch",
     "dims must be constant on ceil(log_p) blocks; differ at 2,3"),
    (lambda: NormData(3, 1, {1: 2, 2: 1, 3: 1}, 1), "Mismatch",
     "i invariant must be None or in 0..0"),
    (lambda: GroupHom(G, G, [0, 1, 2]), "RelationInconsistent", "image list has wrong length"),
    (lambda: GroupHom(G, G, [1, 0, 2, 3]), "RelationInconsistent",
     "identity must map to identity"),
    (lambda: GroupHom(G, G, [0, 1, 2, 9]), "RelationInconsistent", "images out of range"),
    (lambda: GroupHom(G, G, [0, 1.5, 2, 3]), "RelationInconsistent",
     "images must be integers"),
    (lambda: GroupHom(G, G, [0, 1, 0, 0]), "RelationInconsistent", "map is not multiplicative"),
    (lambda: DualActionData((0,), {}, {}), "RelationInconsistent",
     "cyclic factor orders must be positive"),
    (lambda: DualActionData((2,), {"s": [[1, 0]]}, {}), "RelationInconsistent",
     "action matrix for s has wrong shape"),
    (lambda: DualActionData((2, 4), {"s": [[1, 0], [1, 1]]}, {}), "RelationInconsistent",
     "action matrix for s is not well defined"),
    (lambda: DualActionData((64, 128), {"s": [[1, 0], [0, 1]]}, {}), "TooLarge",
     "kernel too large for bijectivity check"),
    (lambda: DualActionData((2, 2), {"s": [[0, 0], [0, 0]]}, {}), "RelationInconsistent",
     "action matrix for s is not bijective"),
    (lambda: DualActionData((2,), {}, {"s": 2}), "RelationInconsistent",
     "cyclo value 2 is not a unit mod 2"),
])
def test_each_check_raises_its_code_and_detail(build, code, detail):
    with pytest.raises(PgalError) as exc:
        build()
    assert (exc.value.code, exc.value.detail) == (code, detail)


PKG = Path(__file__).resolve().parent.parent / "src" / "pgal"


def _copies_parameters(stmt, params) -> bool:
    """self.x = x, self.x, self.y = x, y, or object.__setattr__(self, "x", x)."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return (ast.unparse(call.func) == "object.__setattr__" and len(call.args) == 3
                and isinstance(call.args[2], ast.Name) and call.args[2].id in params)
    if not isinstance(stmt, ast.Assign):
        return False
    targets = [t for target in stmt.targets
               for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
    values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
    return (all(isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self" for t in targets)
            and all(isinstance(v, ast.Name) and v.id in params for v in values))


def _copy_only_inits(pkg: Path) -> list:
    """The record classes under pkg whose __init__ only copies its parameters."""
    classes = [node for path in sorted(pkg.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    records = [c for c in classes if {ast.unparse(b) for b in c.bases} & {"Record", "FrozenRecord"}]
    out = []
    for cls in records:
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                params = {a.arg for a in fn.args.args[1:] + fn.args.kwonlyargs}
                body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                                   and isinstance(s.value, ast.Constant))]
                if all(_copies_parameters(s, params) for s in body):
                    out.append(cls.name)
    return out


def test_records_are_built_by_one_constructor():
    assert _copy_only_inits(PKG) == []
    setters = [path.name for path in sorted(PKG.glob("*.py"))
               if "object.__setattr__" in path.read_text()]
    assert setters == ["records.py"]


# a bare except and these classes catch OverflowError too
CATCHES_OVERFLOW = {"OverflowError", "ArithmeticError", "Exception", "BaseException"}


def _overflow_catchers(pkg: Path) -> list:
    """(file, innermost enclosing function) of each handler under pkg that
    catches OverflowError."""
    out = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function's name wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and (node.type is None or CATCHES_OVERFLOW & {
                    getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}):
                out.append((path.name, owner.get(node)))
    return out


def test_caller_integers_have_one_reader(tmp_path):
    assert _overflow_catchers(PKG) == [("groups.py", "read_integers")]
    defined = {node.name for path in PKG.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"integer_array", "_read"}
    # the guard sees a cast of its own in a nested function, and a bare except
    (tmp_path / "m.py").write_text(
        "def f(x):\n    def g():\n        try:\n            return int(x)\n"
        "        except (TypeError, OverflowError):\n            pass\n"
        "    try:\n        g()\n    except:\n        pass\n")
    assert _overflow_catchers(tmp_path) == [("m.py", "f"), ("m.py", "g")]


def _owners(pkg: Path, hit) -> list:
    """(file, qualified name of the innermost enclosing function, or None)
    of each node under pkg for which hit(node) holds."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                out.append((path.name, owner))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner)

    for path in sorted(pkg.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    return out


def _tests_payload_for_zero(node) -> bool:
    """A comparison that tests a payload for equality with 0."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(getattr(s, "attr", getattr(s, "id", None)) == "payload" for s in sides)
            and any(isinstance(s, ast.Constant) and s.value == 0 for s in sides))


def test_a_zero_entry_is_refused_only_where_a_field_element_is_made(tmp_path):
    assert _owners(PKG, _tests_payload_for_zero) == [("symbols.py", "FieldElem.__init__")]
    # the guard sees a test in a nested function or either orientation, not a sign test
    (tmp_path / "m.py").write_text(
        "class A:\n    def f(self, x):\n        def g():\n            return 0 != x.payload\n"
        "        return x.payload == 0 or x.payload < 0\n")
    assert _owners(tmp_path, _tests_payload_for_zero) == [("m.py", "A.f.g"), ("m.py", "A.f")]


def _names_is_prime(node) -> bool:
    """A name, attribute or imported name is_prime."""
    return "is_prime" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None), getattr(node, "asname", None))


def _divides_out(node) -> bool:
    """while a % b == 0 (either orientation) or while not a % b."""
    if not isinstance(node, ast.While):
        return False
    test = node.test
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return isinstance(test.operand, ast.BinOp) and isinstance(test.operand.op, ast.Mod)
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    sides = [test.left, *test.comparators]
    return (any(isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mod) for s in sides)
            and any(isinstance(s, ast.Constant) and s.value == 0 for s in sides))


def _scalar_read(node) -> bool:
    """read_integers(..., ndim=0, ...), by name or attribute."""
    name = getattr(node, "func", None)
    return (isinstance(node, ast.Call)
            and "read_integers" in (getattr(name, "id", None), getattr(name, "attr", None))
            and any(k.arg == "ndim" and isinstance(k.value, ast.Constant) and k.value.value == 0
                    for k in node.keywords))


def test_only_arith_names_is_prime(tmp_path):
    assert {name for name, _ in _owners(PKG, _names_is_prime)} == {"arith.py"}
    (tmp_path / "m.py").write_text(
        "from .arith import is_prime as ip\nfrom . import arith\n"
        "def f(p):\n    return arith.is_prime(p)\n")
    assert _owners(tmp_path, _names_is_prime) == [("m.py", None), ("m.py", "f")]


def test_only_arith_divides_a_prime_out_in_a_loop(tmp_path):
    assert _owners(PKG, _divides_out) == [("arith.py", "valuation"), ("arith.py", "_trial_division")]
    (tmp_path / "m.py").write_text(
        "class A:\n    def f(self, n, q):\n        while 0 == n % q:\n            n //= q\n"
        "        while not n % q:\n            n //= q\n        while n % q == 1:\n"
        "            n -= 1\n        return n\n")
    assert _owners(tmp_path, _divides_out) == [("m.py", "A.f"), ("m.py", "A.f")]


def test_no_integer_is_read_as_a_zero_dimensional_array(tmp_path):
    assert _owners(PKG, _scalar_read) == []
    (tmp_path / "m.py").write_text(
        "from . import groups\n"
        "def f(x):\n    return groups.read_integers(x, ValueError, '', ndim=0)\n"
        "def g(x):\n    return read_integers(x, ValueError, '', ndim=1)\n")
    assert _owners(tmp_path, _scalar_read) == [("m.py", "f")]


def _least_along_an_axis(node) -> bool:
    """A call of a .min attribute with an axis, by keyword or position: a
    search for the least element of each coset."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr == "min"
            and (bool(node.args) or any(k.arg == "axis" for k in node.keywords)))


def test_only_right_cosets_finds_a_cosets_least_element(tmp_path):
    assert _owners(PKG, _least_along_an_axis) == [("groups.py", "right_cosets")]
    # the guard sees a keyword or a positional axis and a nested function,
    # not a whole-array min or the builtin
    (tmp_path / "m.py").write_text(
        "class A:\n    def f(self, T, N):\n        def g():\n            return T[:, N].min(axis=1)\n"
        "        return T[N].min(0), np.min(T[N], axis=0), T.min(), min(N, key=abs)\n")
    assert _owners(tmp_path, _least_along_an_axis) == [
        ("m.py", "A.f.g"), ("m.py", "A.f"), ("m.py", "A.f")]


def _is_table(node) -> bool:
    """T, self._np, an .np_table attribute, or a subscript of one of these."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "T"
            or isinstance(node, ast.Attribute)
            and (node.attr == "np_table" or ast.unparse(node) == "self._np"))


def _compares_table_with_zero(node) -> bool:
    """A comparison of a table with 0, in either orientation: a search for inverses."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return (any(isinstance(s, ast.Constant) and s.value == 0 for s in sides)
            and any(_is_table(s) for s in sides))


def test_inverses_are_found_only_by_their_owners(tmp_path):
    assert _owners(PKG, _compares_table_with_zero) == [
        ("cohomology.py", "cocycle_of_extension"), ("groups.py", "Group._validate"),
        ("groups.py", "Group.inverses"), ("groups.py", "Group.conjugations")]
    # the guard sees either orientation and a nested function, not a sum, a
    # membership array indexed by table entries or another constant
    (tmp_path / "m.py").write_text(
        "class A:\n    def f(self, T):\n        def g():\n            return 0 == T[1][:, 2]\n"
        "        return (self._np == 0, self.G.np_table[3] != 0, T.sum() == 0,\n"
        "                self.pos[T[1]] == 0, T[1] < 1)\n")
    assert _owners(tmp_path, _compares_table_with_zero) == [
        ("m.py", "A.f.g"), ("m.py", "A.f"), ("m.py", "A.f")]


# numpy's set routines, each of which loads numpy.ma on first use (13-15 ms);
# np.unique asked for an index or an inverse, and np.isin, do not, but the
# library uses none of them: right_cosets, masks and np.bincount do the work
SET_ROUTINES = {"unique", "setdiff1d", "intersect1d", "union1d", "setxor1d", "unique_values"}


def _names_a_set_routine(node) -> bool:
    """An attribute np.<routine> or numpy.<routine>, or a routine imported by name."""
    if isinstance(node, ast.Attribute):
        return node.attr in SET_ROUTINES and ast.unparse(node.value) in ("np", "numpy")
    return isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
        a.name in SET_ROUTINES for a in node.names)


def test_no_module_names_a_numpy_set_routine(tmp_path):
    assert _owners(PKG, _names_a_set_routine) == []
    # the guard sees a call with or without keywords, an attribute that is
    # not called, numpy by its full name and an imported routine, in a
    # nested function too, and not np.isin, a method or a comment
    (tmp_path / "m.py").write_text(
        "import numpy\nimport numpy as np\nfrom numpy import setdiff1d, isin\n"
        "class A:\n    def f(self, x):\n        def g():\n"
        "            return np.unique(x, return_index=True)\n"
        "        return numpy.intersect1d(x, x), np.union1d, np.isin(x, x), x.unique()\n"
        "def h(x):  # np.setxor1d\n    return np.unique_values(x)\n")
    assert _owners(tmp_path, _names_a_set_routine) == [
        ("m.py", None), ("m.py", "A.f.g"), ("m.py", "A.f"), ("m.py", "A.f"), ("m.py", "h")]
