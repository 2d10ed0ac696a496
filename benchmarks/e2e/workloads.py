"""The four named workloads, generated from ``--seed`` in this process.

The program under test receives only the generated operations.  Names
are the contract later issues cite; the one-line reasons live in
``BENCHMARK.json`` and are expanded in the README.

Runs are time-bounded (``--seconds``), so every generator emits more
operations than any plausible run consumes (``*_MAX_RATE``); a run that
exhausts its list ends early and reports the time it actually measured.
Documents are addressed by *slot* — the position in insertion order —
because the middleware assigns the real ids at run time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.fhir.generator import MedicalDataGenerator

from e2e import profile

#: Sizes at the default ``--seconds 15`` are about 0.4x the issue's
#: 60 s design (the contract's run cap); rates, latency and the profile
#: are unchanged, only counts shrink.
MIX_CORPUS = 400
MIX_COHORT = 16          # patients per cohort -> ~25 docs per subject
OPEN_RATE_OPS_S = 10.0
MIX_FIND_FIELDS = ("subject", "effective", "issued", "value")
CLOSED_MAX_RATE = 250    # generated ops per second of run, closed mixes

HOT_CORPUS = 160
HOT_PATIENTS = 20        # -> 8 docs per patient
HOT_POPULATION = 40      # distinct queries, 8 per kind; fits 512/2048
HOT_ZIPF_S = 1.1
HOT_RANGE_WIDTH = 80
HOT_EFFECTIVE_SPAN = 1000   # -> ~13 docs per 80-wide window
HOT_MAX_RATE = 40

BULK_CHUNK = 50
BULK_UPDATES_PER_CHUNK = 8   # 4000 : 600 : 600 in the issue's sizing
BULK_DELETES_PER_CHUNK = 7
BULK_MAX_CYCLES_S = 6

#: 0 ms-link workloads run the calibration kernel after every 4th op.
CALIBRATE_EVERY = 4


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``cls`` is the latency class it is reported under; ``kind`` the
    concrete call.  ``slot`` is the slot an insert fills (the first one
    for ``insert_many``) or the target of get/update/delete.
    """

    kind: str
    cls: str
    slot: int = -1
    docs: tuple = ()
    field: str = ""
    value: Any = None
    high: Any = None
    where: tuple | None = None
    changes: tuple = ()
    #: open loop: seconds after the start of its ``phase``
    due: float = 0.0
    phase: int = 0


@dataclass
class Workload:
    name: str
    latency_ms: float
    loop: str                  # "open" | "closed"
    schema_name: str           # "observation" | "obs"
    corpus: list[dict]
    ops: list[Op]
    #: CPU-bound (0 ms link): sample machine speed every so many ops
    calibrate_every: int = 0
    #: subjects whose documents the timed phase never writes
    read_subjects: frozenset = field(default_factory=frozenset)
    write_subjects: frozenset = field(default_factory=frozenset)

    def schema(self):
        return (profile.hot_schema() if self.schema_name == "obs"
                else profile.observation_schema())

    def digest(self) -> str:
        payload = json.dumps(
            {"corpus": self.corpus, "ops": [asdict(op) for op in self.ops]},
            sort_keys=True, default=list,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


# -- the §5.2 mix (wan_mix_open, cpu_mix_closed) -----------------------------


def _cohorts(generator: MedicalDataGenerator):
    """Two patient cohorts with disjoint ``subject`` sets.

    Timed inserts go to the second cohort only: Mitra bumps its
    gateway-side counter before the batched index entry lands, so a
    concurrent search on the same keyword would see a gap
    (``bench_gateway.py``).  Keyword-disjoint reads and writes keep
    aggregates that overlap inserts exact.
    """
    search, insert, names = [], [], set()
    while len(insert) < MIX_COHORT:
        patient = generator.patient()
        if patient.name in names:
            continue
        names.add(patient.name)
        (search if len(search) < MIX_COHORT else insert).append(patient)
    return search, insert


def _block_shapes(phased: bool) -> list[list[tuple[str, str]]]:
    """(class, find field) of one block of the mix, per phase.

    Unphased, a block of 12 holds every class 4x and every find field
    once.  Phased, the same 12 split into an insert phase and a find
    phase, half of the aggregates in each: a find's proof-on-fetch
    check fails on the seed when an insert moves a shard's Merkle root
    under it (a false ``StaleStateError``/``IntegrityError``, 3-7 % of
    the overlapping mix), and the benchmark's contract wants workloads
    on which no operation fails.  Aggregates fetch no documents and
    overlap both.
    """
    inserts = [("insert", "")] * len(MIX_FIND_FIELDS)
    finds = [("find", name) for name in MIX_FIND_FIELDS]
    aggregates = [("aggregate", "")] * len(MIX_FIND_FIELDS)
    if phased:
        half = len(aggregates) // 2
        return [inserts + aggregates[:half], finds + aggregates[half:]]
    return [inserts + finds + aggregates]


def _mix(name: str, seed: int, seconds: float, scale: float,
         latency_ms: float, loop: str,
         rate: float = OPEN_RATE_OPS_S, phased: bool = False) -> Workload:
    rng = random.Random(seed)
    generator = MedicalDataGenerator(seed)
    search, insert = _cohorts(generator)
    corpus = [
        generator.observation(rng.choice(search)).to_document()
        for _ in range(max(40, int(MIX_CORPUS * scale)))
    ]
    read_subjects = frozenset(d["subject"] for d in corpus)
    write_subjects = frozenset(p.name for p in insert)
    if read_subjects & write_subjects:
        raise AssertionError("search and insert cohorts share a subject")

    ops, slot = [], len(corpus)
    shapes = _block_shapes(phased)
    for phase, block in enumerate(shapes):
        span = seconds / len(shapes)
        if loop == "open":
            # A Poisson process conditioned on its count: the arrival
            # times are sorted uniforms, the count is the same for
            # every seed.
            dues = sorted(rng.uniform(0.0, span)
                          for _ in range(round(rate * span)))
        else:
            dues = [0.0] * int(span * CLOSED_MAX_RATE)
        shape: list[tuple[str, str]] = []
        for due in dues:
            # Whole blocks in seeded order, so any prefix of the stream
            # has the same composition.
            if not shape:
                shape = list(block)
                rng.shuffle(shape)
            cls, field_name = shape.pop()
            if cls == "insert":
                document = generator.observation(
                    rng.choice(insert)).to_document()
                ops.append(Op("insert", cls, slot=slot, docs=(document,),
                              due=due, phase=phase))
                slot += 1
            elif cls == "find":
                ops.append(Op("find_eq", cls, field=field_name,
                              value=rng.choice(corpus)[field_name],
                              due=due, phase=phase))
            else:
                ops.append(Op("avg", cls, field="value", where=(
                    "subject", rng.choice(corpus)["subject"]),
                    due=due, phase=phase))
    return Workload(name, latency_ms, loop, "observation", corpus, ops,
                    CALIBRATE_EVERY if latency_ms == 0 else 0,
                    read_subjects, write_subjects)


# -- hot_read_zipf ------------------------------------------------------------


def zipf_sequence(population: int, exponent: float, length: int
                  ) -> list[int]:
    """Ranks in Zipf(``exponent``) proportions, without sampling noise.

    Position k goes to the rank furthest behind its share of the first
    k draws, so every prefix holds the distribution as closely as whole
    numbers allow and a rank's first occurrence — the cache miss — falls
    at the same position for every seed.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    total = sum(weights)
    shares = [weight / total for weight in weights]
    drawn = [0] * population
    sequence = []
    for position in range(1, length + 1):
        rank = max(range(population),
                   key=lambda r: shares[r] * position - drawn[r])
        drawn[rank] += 1
        sequence.append(rank)
    return sequence


def _hot(seed: int, seconds: float, scale: float) -> Workload:
    rng = random.Random(seed)
    size = max(40, int(HOT_CORPUS * scale))
    corpus = [
        {
            "status": rng.choice(("final", "draft", "amended",
                                  "corrected")),
            "patient": f"p{rng.randrange(HOT_PATIENTS)}",
            "effective": rng.randrange(HOT_EFFECTIVE_SPAN),
            "value": round(rng.uniform(0.0, 100.0), 2),
            "note": f"note {index}",
        }
        for index in range(size)
    ]
    patients = sorted({d["patient"] for d in corpus})
    per_kind = min(len(patients),
                   max(2, int(HOT_POPULATION * scale) // 5))
    kinds = [
        [Op("find_eq", "find", field="patient", value=patient)
         for patient in rng.sample(patients, per_kind)],
        [Op("count", "aggregate", where=("patient", patient))
         for patient in rng.sample(patients, per_kind)],
        [Op("find_range", "find", field="effective", value=low,
            high=low + HOT_RANGE_WIDTH)
         for low in rng.sample(
             range(HOT_EFFECTIVE_SPAN - HOT_RANGE_WIDTH), per_kind)],
        [Op("avg", "aggregate", field="value", where=("patient", patient))
         for patient in rng.sample(patients, per_kind)],
        [Op("get", "find", slot=slot)
         for slot in rng.sample(range(size), per_kind)],
    ]
    # Rank r holds kind r mod 5: the seed picks the parameters, not
    # which kinds are hot.
    population = [kinds[rank % 5][rank // 5]
                  for rank in range(5 * per_kind)]
    ops = [population[rank] for rank in zipf_sequence(
        len(population), HOT_ZIPF_S, int(seconds * HOT_MAX_RATE))]
    return Workload("hot_read_zipf", profile.WAN_ONE_WAY_MS, "closed",
                    "obs", corpus, ops)


# -- bulk_write ---------------------------------------------------------------


def _bulk(seed: int, seconds: float, scale: float) -> Workload:
    rng = random.Random(seed)
    generator = MedicalDataGenerator(seed)
    cohort = [generator.patient() for _ in range(2 * MIX_COHORT)]
    statuses = ("registered", "preliminary", "final", "amended")

    def document() -> dict:
        return generator.observation(rng.choice(cohort)).to_document()

    corpus = [document() for _ in range(max(40, int(MIX_CORPUS * scale)))]
    live = list(range(len(corpus)))
    slot = len(corpus)
    ops: list[Op] = []
    for _ in range(max(1, int(seconds * BULK_MAX_CYCLES_S))):
        docs = tuple(document() for _ in range(BULK_CHUNK))
        ops.append(Op("insert_many", "insert", slot=slot, docs=docs))
        live.extend(range(slot, slot + BULK_CHUNK))
        slot += BULK_CHUNK
        tail = (["update"] * BULK_UPDATES_PER_CHUNK
                + ["delete"] * BULK_DELETES_PER_CHUNK)
        rng.shuffle(tail)
        for kind in tail:
            position = rng.randrange(len(live))
            if kind == "update":
                ops.append(Op("update", "update", slot=live[position],
                              changes=(
                                  ("status", rng.choice(statuses)),
                                  ("value", round(rng.uniform(2, 200), 2)),
                              )))
            else:
                live[position], live[-1] = live[-1], live[position]
                ops.append(Op("delete", "delete", slot=live.pop()))
    return Workload("bulk_write", 0.0, "closed", "observation", corpus,
                    ops, CALIBRATE_EVERY)


GENERATORS = {
    "wan_mix_open": lambda seed, seconds, scale: _mix(
        "wan_mix_open", seed, seconds, scale, profile.WAN_ONE_WAY_MS,
        "open", phased=True),
    "cpu_mix_closed": lambda seed, seconds, scale: _mix(
        "cpu_mix_closed", seed, seconds, scale, 0.0, "closed"),
    "hot_read_zipf": _hot,
    "bulk_write": _bulk,
}

NAMES = tuple(GENERATORS)


def generate(name: str, seed: int, seconds: float,
             scale: float = 1.0) -> Workload:
    """``scale`` shrinks corpus and query population (``--quick``)."""
    return GENERATORS[name](seed, seconds, scale)


def open_mix_at(rate: float, seed: int, seconds: float,
                phased: bool = True) -> Workload:
    """``wan_mix_open`` replayed at another arrival rate (``--sweep``)
    or as one phase in which finds overlap inserts (``--overlap``)."""
    return _mix("wan_mix_open", seed, seconds, 1.0,
                profile.WAN_ONE_WAY_MS, "open", rate, phased)
