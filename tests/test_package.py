"""The package surface: lazy re-exports, the immutable records and value
types, and which modules each subcommand loads in a fresh interpreter."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cremona_bounds
from cremona_bounds import (
    AlgebraicallyClosed,
    CremonaBound,
    CyclotomicExtension,
    FiniteField,
    FiniteFieldTorus,
    GaloisTorusPresentation,
    IntMatrix,
    IntPoly,
    ModPoly,
    RankCertificate,
    Rationals,
    cyclotomic_poly,
    reduce_mod,
)
from cremona_bounds.intlinalg import finite_order_indices
from cremona_bounds.weyl_audit import WeylElement

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestLazyExports:
    def test_every_public_name_resolves(self):
        for name in cremona_bounds.__all__:
            value = getattr(cremona_bounds, name)
            assert value.__module__.startswith("cremona_bounds.")

    def test_star_import(self):
        namespace = {}
        exec("from cremona_bounds import *", namespace)
        assert set(cremona_bounds.__all__) <= set(namespace)

    def test_dir_lists_the_names(self):
        assert set(cremona_bounds.__all__) <= set(dir(cremona_bounds))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cremona_bounds.no_such_name
        assert not hasattr(cremona_bounds, "no_such_name")


ONE = IntMatrix([[1]])

# (record class, field values, other field values or None when it has none)
RECORDS = [
    (FiniteField, (4,), (8,)),
    (Rationals, (), None),
    (CyclotomicExtension, (3,), (5,)),
    (AlgebraicallyClosed, (), None),
    (CremonaBound, (3, 1, 3, "Fermat cubic surface, rank 3"), (5, 2, 2, "rank-2")),
    (GaloisTorusPresentation, (1, ONE, 1), (1, IntMatrix([[-1]]), 2)),
    (RankCertificate, (1, 1, (1,), 1), (1, 0, (1,), 1)),
    (FiniteFieldTorus, (4, ONE), (5, ONE)),
    (WeylElement, ((0, 1, 2, 3), IntMatrix.identity(3)), ((1, 0, 2, 3), ONE)),
]


@pytest.mark.parametrize("cls,values,other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record(cls, values, other):
    fields = cls.__slots__
    record = cls(*values)
    by_name = cls(**dict(zip(fields, values)))
    assert record == by_name and hash(record) == hash(by_name)
    assert record != values
    assert record != (AlgebraicallyClosed() if cls is Rationals else Rationals())
    if other is not None:
        assert record != cls(*other)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    assert list(record.to_dict().items()) == list(zip(fields, values))
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, 0)
    for name in fields:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    with pytest.raises(TypeError):
        cls(*values, 0)
    if fields:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})


# (value, an equal value built another way): Phi_16807 = Phi_7(X^2401) mod 3
# is kept in its stride form
VALUES = [
    (IntPoly([1, -2, 3]), IntPoly((1, -2, 3, 0, 0))),
    (IntPoly(), IntPoly([0])),
    (ModPoly(5, [1, 2]), ModPoly(5, [6, -3])),
    (reduce_mod(cyclotomic_poly(16807), 3), ModPoly(3, cyclotomic_poly(16807).coeffs)),
    (IntMatrix([[0, 1], [-1, 0]]), IntMatrix([[0, 1], [-1, 0]]) ** 5),
]


@pytest.mark.parametrize("value,twin", VALUES,
                         ids=["IntPoly", "IntPoly-zero", "ModPoly", "ModPoly-stride", "IntMatrix"])
def test_value_type(value, twin):
    assert twin == value and hash(twin) == hash(value)
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
    for name in value.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)


def test_value_types_are_distinct():
    assert IntPoly([1]) != ModPoly(5, [1])
    assert ModPoly(5, [1]) != ModPoly(7, [1])


def test_matrix_cache_is_not_a_field():
    m = IntMatrix([[0, 1], [1, 0]])
    assert finite_order_indices(m) == (1, 2)
    fresh = IntMatrix(m.rows)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert m.to_dict() == {"rows": ((0, 1), (1, 0)), "dimension": 2}
    assert finite_order_indices(copy.copy(m)) == (1, 2)


def loaded_modules(code, *argv):
    """Modules a fresh interpreter holds after running code with argv.
    Without `site` (-S), so that only the package's own imports count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code += "\nprint(*sorted(sys.modules), file=sys.stderr)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stderr.split())


CLI = "import sys\nfrom cremona_bounds.cli import main\nmain(sys.argv[1:])"
LAYERS = {f"cremona_bounds.{m}" for m in (
    "cremona_table", "intlinalg", "torus_rank", "ff_oracle", "weyl_audit",
    "sweeps", "sampling")}
MATRIX_LAYER = LAYERS - {"cremona_bounds.cremona_table"}
SWEEP_ONLY = {"cremona_bounds.sampling", "random"}

# (arguments, modules the subcommand must leave out)
SUBCOMMANDS = [
    (["bound", "--p", "3", "--t", "1"], MATRIX_LAYER | {"random"}),
    (["cyclotomic", "--n", "12", "--p", "5"], MATRIX_LAYER),
    (["lemma", "--max-n", "6", "--primes", "3"], MATRIX_LAYER),
    (["torus-rank", "--file", "{torus}", "--p", "3"], {"cremona_bounds.sweeps"} | SWEEP_ONLY),
    (["oracle", "--file", "{torus}", "--p", "3"], SWEEP_ONLY),
    (["oracle", "--count", "1"], set()),
    (["sharpness", "--d", "2", "--t", "3"], SWEEP_ONLY),
    (["weyl-audit"], {"cremona_bounds.sweeps", "cremona_bounds.ff_oracle"} | SWEEP_ONLY),
]


@pytest.mark.parametrize("argv,absent", SUBCOMMANDS, ids=[" ".join(a[:2]) for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_layers(tmp_path, argv, absent):
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps({"dimension": 1, "q": 4, "sigma": [[1]], "chi_order": 1}))
    modules = loaded_modules(CLI, *(a.format(torus=torus) for a in argv))
    assert "cremona_bounds.cli" in modules
    assert not modules & (absent | {"dataclasses"})


def test_import_loads_only_the_core():
    modules = loaded_modules("import sys, cremona_bounds")
    assert {m for m in modules if m.startswith("cremona_bounds")} == {
        "cremona_bounds", "cremona_bounds.errors", "cremona_bounds.numth",
        "cremona_bounds.cyclotomic"}
    assert "dataclasses" not in modules
    modules = loaded_modules("import sys, cremona_bounds\ncremona_bounds.IntMatrix")
    assert "cremona_bounds.intlinalg" in modules
