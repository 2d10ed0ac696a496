"""SPI layer: leakage model, descriptors, interface introspection."""

import pytest

from repro.errors import PolicyError
from repro.spi.descriptors import (
    Aggregate,
    Operation,
    implemented_interfaces,
    spi_counts,
)
from repro.spi.interfaces import CLOUD_INTERFACES, GATEWAY_INTERFACES
from repro.spi.leakage import (
    LeakageLevel,
    LeakageProfile,
    OperationLeakage,
    ProtectionClass,
    weakest_link,
)
from repro.tactics import BUILTIN_TACTICS


class TestLeakageLevels:
    def test_ordering(self):
        assert (LeakageLevel.STRUCTURE < LeakageLevel.IDENTIFIERS
                < LeakageLevel.PREDICATES < LeakageLevel.EQUALITIES
                < LeakageLevel.ORDER)

    def test_labels(self):
        assert LeakageLevel.STRUCTURE.label == "Structure"
        assert LeakageLevel.ORDER.label == "Order"

    def test_weakest_link_is_max(self):
        assert weakest_link([LeakageLevel.STRUCTURE,
                             LeakageLevel.EQUALITIES,
                             LeakageLevel.IDENTIFIERS]
                            ) == LeakageLevel.EQUALITIES

    def test_weakest_link_rejects_empty(self):
        with pytest.raises(PolicyError):
            weakest_link([])


class TestProtectionClass:
    @pytest.mark.parametrize("raw,expected", [
        ("C1", 1), ("c3", 3), ("Class 5", 5), (2, 2),
        (ProtectionClass.C4, 4),
    ])
    def test_parse(self, raw, expected):
        assert int(ProtectionClass.parse(raw)) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(PolicyError):
            ProtectionClass.parse("high")
        with pytest.raises(ValueError):
            ProtectionClass.parse("C9")

    def test_tolerates(self):
        assert ProtectionClass.C3.tolerates(LeakageLevel.PREDICATES)
        assert not ProtectionClass.C3.tolerates(LeakageLevel.EQUALITIES)
        assert ProtectionClass.C5.tolerates(LeakageLevel.ORDER)


class TestLeakageProfile:
    def test_level_is_max_over_operations(self):
        profile = LeakageProfile({
            "insert": OperationLeakage(LeakageLevel.STRUCTURE),
            "eq_search": OperationLeakage(LeakageLevel.EQUALITIES),
        })
        assert profile.level == LeakageLevel.EQUALITIES
        assert profile.protection_class == ProtectionClass.C4

    def test_per_operation_lookup(self):
        profile = LeakageProfile({
            "insert": OperationLeakage(LeakageLevel.STRUCTURE,
                                       forward_private=True),
        })
        assert profile.for_operation("insert").forward_private
        assert profile.for_operation("nope") is None

    def test_empty_profile_is_structure(self):
        assert LeakageProfile().level == LeakageLevel.STRUCTURE


class TestOperationsAndAggregates:
    def test_operation_parse(self):
        assert Operation.parse("EQ") is Operation.EQUALITY
        assert Operation.parse(" bl ") is Operation.BOOLEAN
        assert Operation.parse(Operation.RANGE) is Operation.RANGE

    def test_aggregate_parse(self):
        assert Aggregate.parse("AVG") is Aggregate.AVG
        assert Aggregate.parse(Aggregate.SUM) is Aggregate.SUM


# The paper's Table 2 SPI counts, verbatim.
TABLE2_SPI = {
    "det": (9, 6),
    "mitra": (7, 5),
    "sophos": (6, 4),
    "rnd": (6, 4),
    "biex-2lev": (8, 5),
    "biex-zmf": (8, 5),
    "ope": (3, 3),
    "ore": (3, 3),
    "paillier": (3, 3),
}

# The two extension tactics beyond Table 2: the blind index sits at DET's
# class without DocIDGen/SecureEnc/Retrieval, ElGamal at Paillier's shape.
EXTENSION_SPI = {
    "blind-index": (6, 5),
    "elgamal": (3, 3),
}

# The paper's Table 2 protection classes.
TABLE2_CLASSES = {
    "det": 4, "mitra": 2, "sophos": 2, "rnd": 1,
    "biex-2lev": 3, "biex-zmf": 3, "ope": 5, "ore": 5,
    "paillier": None,
}


class TestTable2Fidelity:
    @pytest.mark.parametrize("name,expected", sorted(TABLE2_SPI.items()))
    def test_spi_counts_match_table2(self, name, expected):
        row = next(r for r in BUILTIN_TACTICS if r[0].name == name)
        assert spi_counts(row[1], row[2]) == expected

    @pytest.mark.parametrize("name,expected", sorted(EXTENSION_SPI.items()))
    def test_extension_spi_counts(self, name, expected):
        row = next(r for r in BUILTIN_TACTICS if r[0].name == name)
        assert spi_counts(row[1], row[2]) == expected

    @pytest.mark.parametrize("name,expected",
                             sorted(TABLE2_CLASSES.items(),
                                    key=lambda kv: kv[0]))
    def test_protection_classes_match_table2(self, name, expected):
        descriptor = next(
            r[0] for r in BUILTIN_TACTICS if r[0].name == name
        )
        if expected is None:
            assert descriptor.protection_class is None
        else:
            assert int(descriptor.protection_class) == expected

    def test_every_tactic_implements_setup(self):
        for descriptor, gateway_cls, cloud_cls in BUILTIN_TACTICS:
            assert "Setup" in implemented_interfaces(gateway_cls, "gateway")
            assert "Setup" in implemented_interfaces(cloud_cls, "cloud")

    def test_descriptor_class_agrees_with_leakage(self):
        for descriptor, _, _ in BUILTIN_TACTICS:
            if descriptor.protection_class is not None:
                assert int(descriptor.protection_class) == int(
                    descriptor.leakage.level
                )


class TestDescriptorBehaviour:
    def test_boolean_via_equality(self):
        det = next(r[0] for r in BUILTIN_TACTICS if r[0].name == "det")
        assert det.supports(Operation.BOOLEAN)  # via equality
        assert Operation.BOOLEAN not in det.operations

    def test_admissibility(self):
        det = next(r[0] for r in BUILTIN_TACTICS if r[0].name == "det")
        assert det.admissible_for(ProtectionClass.C4)
        assert det.admissible_for(ProtectionClass.C5)
        assert not det.admissible_for(ProtectionClass.C3)

    def test_aggregate_only_admissible_everywhere(self):
        paillier = next(
            r[0] for r in BUILTIN_TACTICS if r[0].name == "paillier"
        )
        assert paillier.admissible_for(ProtectionClass.C1)
        assert paillier.supports_aggregate(Aggregate.AVG)
        assert not paillier.supports_aggregate(Aggregate.PRODUCT)


def test_interface_tables_cover_table1_names():
    assert set(GATEWAY_INTERFACES) >= {
        "Insertion", "DocIDGen", "SecureEnc", "Update", "Retrieval",
        "Deletion", "EqQuery", "EqResolution", "BoolQuery",
        "BoolResolution", "AggFunctionResolution", "Setup",
    }
    assert set(CLOUD_INTERFACES) >= {
        "Insertion", "Update", "Retrieval", "Deletion", "EqQuery",
        "BoolQuery", "AggFunction", "Setup",
    }
