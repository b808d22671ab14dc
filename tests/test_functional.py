"""Unit tests for the functional substrate model (§2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.names import BaseName, ImplicitName
from repro.core.proper import is_proper
from repro.exceptions import NotProperError, TranslationError
from repro.models.functional import (
    FunctionalSchema,
    from_schema,
    merge_functional,
    to_schema,
)


class TestConstruction:
    def test_functions_recorded(self):
        functional = FunctionalSchema(
            functions={("Dog", "owner"): "Person"}
        )
        assert functional.functions_of("Dog") == {
            "owner": BaseName("Person")
        }

    def test_inheritance_fills_d2(self):
        functional = FunctionalSchema(
            functions={("Dog", "owner"): "Person"},
            isa=[("Puppy", "Dog")],
        )
        assert functional.functions_of("Puppy") == {
            "owner": BaseName("Person")
        }

    def test_multilevel_inheritance(self):
        functional = FunctionalSchema(
            functions={("Animal", "home"): "Place"},
            isa=[("Dog", "Animal"), ("Puppy", "Dog")],
        )
        assert functional.functions_of("Puppy") == {
            "home": BaseName("Place")
        }

    def test_refinement_not_overwritten(self):
        functional = FunctionalSchema(
            functions={
                ("Dog", "owner"): "Person",
                ("Police-dog", "owner"): "Officer",
            },
            isa=[("Police-dog", "Dog"), ("Officer", "Person")],
        )
        assert functional.functions_of("Police-dog") == {
            "owner": BaseName("Officer")
        }

    def test_inherits_least_of_several_results(self):
        functional = FunctionalSchema(
            functions={("S1", "a"): "T1", ("S2", "a"): "T2"},
            isa=[("C", "S1"), ("C", "S2"), ("T1", "T2")],
        )
        assert functional.functions_of("C") == {"a": BaseName("T1")}
        assert is_proper(to_schema(functional))

    def test_no_least_inherited_result_rejected(self):
        with pytest.raises(TranslationError, match="C inherits 'a'.*T1, T2"):
            FunctionalSchema(
                functions={("S1", "a"): "T1", ("S2", "a"): "T2"},
                isa=[("C", "S1"), ("C", "S2")],
            )

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
    def test_inheritance_is_hash_seed_independent(self, seed):
        # Set iteration order follows PYTHONHASHSEED, so only fresh
        # interpreters can show that the inherited result does not.
        script = (
            "from repro.exceptions import TranslationError\n"
            "from repro.models.functional import FunctionalSchema, to_schema\n"
            "f = FunctionalSchema(functions={('S1', 'a'): 'T1', ('S2', 'a'): 'T2'},\n"
            "                     isa=[('C', 'S1'), ('C', 'S2'), ('T1', 'T2')])\n"
            "to_schema(f)\n"
            "print(f.functions_of('C')['a'])\n"
            "try:\n"
            "    FunctionalSchema(functions={('S1', 'a'): 'T1', ('S2', 'a'): 'T2'},\n"
            "                     isa=[('C', 'S1'), ('C', 'S2')])\n"
            "except TranslationError as exc:\n"
            "    print(exc)\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.splitlines() == [
            "T1",
            "C inherits 'a'-functions with no least result: T1, T2",
        ]

    def test_isa_cycle_rejected(self):
        with pytest.raises(TranslationError):
            FunctionalSchema(isa=[("A", "B"), ("B", "A")])

    def test_no_inherit_mode(self):
        functional = FunctionalSchema(
            functions={("Dog", "owner"): "Person"},
            isa=[("Puppy", "Dog")],
            inherit=False,
        )
        assert functional.functions_of("Puppy") == {}


class TestTranslation:
    def test_to_schema_proper(self):
        functional = FunctionalSchema(
            functions={("Dog", "owner"): "Person"},
            isa=[("Puppy", "Dog")],
        )
        schema = to_schema(functional)
        assert is_proper(schema)
        assert schema.has_arrow("Puppy", "owner", "Person")

    def test_round_trip(self):
        functional = FunctionalSchema(
            functions={
                ("Dog", "owner"): "Person",
                ("Police-dog", "owner"): "Officer",
            },
            isa=[("Police-dog", "Dog"), ("Officer", "Person")],
        )
        assert from_schema(to_schema(functional)) == functional

    def test_from_weak_schema_rejected(self):
        from repro.core.schema import Schema

        weak = Schema.build(arrows=[("F", "a", "C"), ("F", "a", "D")])
        with pytest.raises(NotProperError):
            from_schema(weak)

    def test_d2_incomplete_without_inherit_rejected(self):
        functional = FunctionalSchema(
            functions={("Dog", "owner"): "Person"},
            isa=[("Puppy", "Dog")],
            inherit=False,
        )
        from repro.exceptions import SchemaValidationError

        with pytest.raises(SchemaValidationError):
            to_schema(functional)


class TestMerge:
    def test_union_of_functions(self):
        one = FunctionalSchema(functions={("Dog", "owner"): "Person"})
        two = FunctionalSchema(functions={("Dog", "breed"): "Breed"})
        merged = merge_functional(one, two)
        assert merged.functions_of("Dog") == {
            "owner": BaseName("Person"),
            "breed": BaseName("Breed"),
        }

    def test_conflict_resolved_by_implicit_class(self):
        one = FunctionalSchema(functions={("F", "a"): "C"})
        two = FunctionalSchema(functions={("F", "a"): "D"})
        merged = merge_functional(one, two)
        assert merged.functions_of("F") == {
            "a": ImplicitName(["C", "D"])
        }

    def test_merge_is_order_independent(self):
        one = FunctionalSchema(functions={("F", "a"): "C"})
        two = FunctionalSchema(functions={("F", "a"): "D"})
        three = FunctionalSchema(
            functions={("G", "b"): "C"}, isa=[("G", "F")]
        )
        assert merge_functional(one, two, three) == merge_functional(
            three, two, one
        )
