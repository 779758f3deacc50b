"""Seeded random machine generator.

Builds sized random — but always *valid* — specifications: layered
component graphs of ALUs, selectors, registers, RAMs and I/O ports, plus
an optional microcode section (a program counter walking a control ROM
whose bit fields drive ALU function selects and memory operations).  Every
structural choice comes from one ``random.Random(seed)``, so a seed fully
determines the machine: the differential fuzzer and the regression corpus
both rely on ``generate_machine(seed)`` being reproducible forever.

Validity is by construction, then enforced:

* combinational components only reference *earlier* producers, so the
  dependency graph is acyclic;
* selector select expressions are bit fields exactly as wide as the case
  list (``2**k`` cases for a ``k``-bit field), so indices cannot run off
  the end;
* RAM addresses are bit fields exactly as wide as the (power-of-two)
  memory, so addresses cannot leave the cell range;
* microcode control words are composed from fields that are individually
  valid — ALU function nibbles stay within the fourteen defined codes;
* the result must pass :func:`repro.rtl.validate.ensure_valid` — a
  generator bug raises instead of producing a corrupt corpus entry.

A quarter of the machines is built to break at run time instead, so the
differential fuzzer also compares how a machine fails: one fault undoes
a guarantee above at the first site of its kind — the first selector
loses the tail of its case list, the RAM loses cells beneath its address
field, or the first ALU of the combinational layers reads its function
code from a four-bit field (codes 14 and 15 are undefined).  Those
choices come from a second stream seeded by the same seed, so the main
stream is untouched: a machine that draws no fault, and everything but
the fault site of one that does, is exactly the machine the seed built
before faults existed.  Whether a faulted machine actually raises
depends on the values its run computes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.rtl import alu_ops
from repro.rtl.bits import WORD_BITS
from repro.rtl.builder import SpecBuilder
from repro.rtl.expressions import (
    BitStringField,
    ComponentRef,
    ConstantField,
    Expression,
    Field,
)
from repro.rtl.spec import Specification

#: ALU function codes the generator draws from (every defined code except
#: the degenerate always-zero pair, which adds nothing to a differential).
_FUNCTIONS = (
    alu_ops.FN_RIGHT,
    alu_ops.FN_LEFT,
    alu_ops.FN_NOT,
    alu_ops.FN_ADD,
    alu_ops.FN_SUB,
    alu_ops.FN_SHIFT_LEFT,
    alu_ops.FN_MUL,
    alu_ops.FN_AND,
    alu_ops.FN_OR,
    alu_ops.FN_XOR,
    alu_ops.FN_EQ,
    alu_ops.FN_LT,
)

#: Memory operation words for stateful components: read, write,
#: write+trace, read+trace.
_MEMORY_OPS = (0, 1, 5, 9)

#: The run-time faults a generated machine may carry: a selector index
#: past its case list, a RAM address past its cells, an ALU function code
#: past 13.
_FAULTS = ("selector", "address", "function")
#: The share of machines that carries one of them.
_FAULT_SHARE = 0.25


@dataclass(frozen=True)
class GeneratorConfig:
    """Size knobs for one generated machine."""

    #: ceiling on the number of components (the generator may stay under)
    max_components: int = 16
    #: inclusive cycle-count range for the default run
    min_cycles: int = 8
    max_cycles: int = 48
    #: probability of emitting the microcode (control ROM) section
    microcode_probability: float = 0.5
    #: largest power-of-two RAM size
    max_memory_bits: int = 4
    #: most memory-mapped input values supplied to a run
    max_inputs: int = 4

    def __post_init__(self) -> None:
        if self.max_components < 4:
            raise ValueError("max_components must be at least 4")
        if not 0 < self.min_cycles <= self.max_cycles:
            raise ValueError("cycle range must satisfy 0 < min <= max")


@dataclass(frozen=True)
class GeneratedMachine:
    """One generated machine plus the run parameters to exercise it."""

    spec: Specification
    seed: int
    cycles: int
    inputs: tuple[int, ...] = ()
    config: GeneratorConfig = field(default_factory=GeneratorConfig)

    def with_spec(self, spec: Specification) -> "GeneratedMachine":
        """The same case over a different (e.g. shrunk) specification."""
        return replace(self, spec=spec)


def _operand(rng: random.Random, producers: list[str]) -> Field:
    """One random expression field reading a producer or a constant."""
    roll = rng.random()
    if roll < 0.15:
        return ConstantField(rng.randrange(0, 1 << 12))
    if roll < 0.22:
        width = rng.randrange(2, 9)
        return ConstantField(rng.randrange(0, 1 << width), width)
    if roll < 0.30:
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(1, 9)))
        return BitStringField(bits)
    name = rng.choice(producers)
    shape = rng.random()
    if shape < 0.5:
        return ComponentRef(name)
    if shape < 0.7:
        return ComponentRef(name, rng.randrange(0, 8))
    low = rng.randrange(0, 12)
    high = low + rng.randrange(0, 8)
    return ComponentRef(name, low, min(high, WORD_BITS - 1))


def _expression(rng: random.Random, producers: list[str]) -> Expression:
    """A random expression: one field, or a bounded concatenation."""
    if rng.random() < 0.7:
        return Expression((_operand(rng, producers),))
    # concatenation: leftmost field may be unbounded, the rest must carry
    # explicit widths; keep the bounded widths comfortably inside the word
    fields: list[Field] = [_operand(rng, producers)]
    for _ in range(rng.randrange(1, 3)):
        bounded = _operand(rng, producers)
        if bounded.width is None:
            if isinstance(bounded, ComponentRef):
                low = rng.randrange(0, 8)
                bounded = ComponentRef(bounded.name, low,
                                       low + rng.randrange(0, 6))
            else:
                assert isinstance(bounded, ConstantField)
                width = rng.randrange(2, 9)
                bounded = ConstantField(bounded.value & ((1 << width) - 1),
                                        width)
        fields.append(bounded)
    bounded_width = sum(f.width for f in fields[1:])
    head_width = fields[0].width
    if bounded_width + (head_width or 1) > WORD_BITS:
        return Expression((fields[0],))
    return Expression(tuple(fields))


def _bit_field(rng: random.Random, producers: list[str], bits: int) -> str:
    """A reference exactly *bits* wide, in specification syntax."""
    name = rng.choice(producers)
    low = rng.randrange(0, 4)
    if bits == 1:
        return f"{name}.{low}"
    return f"{name}.{low}.{low + bits - 1}"


def _control_word(rng: random.Random) -> int:
    """One microcode word: two valid function nibbles, an operation
    nibble and an 8-bit literal, packed low to high."""
    funct_a = rng.choice(_FUNCTIONS)
    funct_b = rng.choice(_FUNCTIONS)
    operation = rng.choice(_MEMORY_OPS + (2, 3))
    literal = rng.randrange(0, 256)
    return funct_a | (funct_b << 4) | (operation << 8) | (literal << 12)


def generate_machine(
    seed: int, config: GeneratorConfig | None = None
) -> GeneratedMachine:
    """Generate the machine determined by *seed* under *config*."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    # the fault stream: never drawn from the main stream, so adding it
    # changed no machine that draws no fault
    fault_rng = random.Random(f"fault {seed}")
    #: the fault still waiting for the first site of its kind
    waiting = None
    if fault_rng.random() < _FAULT_SHARE:
        waiting = fault_rng.choice(_FAULTS)
    builder = SpecBuilder(f"fuzz machine seed={seed}")
    budget = rng.randrange(4, config.max_components + 1)

    #: names combinational components may read (grows as layers are added)
    producers: list[str] = []
    #: (name, traced) for every component, to pick trace marks at the end
    component_names: list[str] = []

    def spend(count: int = 1) -> bool:
        nonlocal budget
        if budget < count:
            return False
        budget -= count
        return True

    # -- registers: the sequential backbone (wired at the end) --------------
    register_count = rng.randrange(1, 4)
    registers = [f"r{i}" for i in range(register_count)]
    spend(register_count)
    producers.extend(registers)
    component_names.extend(registers)

    # -- optional microcode section: pc -> control ROM ----------------------
    control = None
    if rng.random() < config.microcode_probability and spend(3):
        rom_bits = rng.randrange(2, 4)
        words = [_control_word(rng) for _ in range(1 << rom_bits)]
        builder.alu("pcinc", alu_ops.FN_ADD, "pc", 1)
        builder.register("pc", data="pcinc", initial_value=0)
        builder.rom("ctrl", address=f"pc.0.{rom_bits - 1}", contents=words)
        control = "ctrl"
        producers.extend(["pc", "ctrl"])
        component_names.extend(["pcinc", "pc", "ctrl"])

    # -- combinational layers: ALUs and selectors ---------------------------
    alu_index = 0
    selector_index = 0
    layer_budget = rng.randrange(1, 6)
    for _ in range(layer_budget):
        if not spend():
            break
        if rng.random() < 0.25 and len(producers) >= 2:
            bits = rng.randrange(1, 3)
            name = f"s{selector_index}"
            selector_index += 1
            select = _bit_field(rng, producers, bits)
            cases = [_expression(rng, producers) for _ in range(1 << bits)]
            if waiting == "selector":
                waiting = None
                del cases[fault_rng.randrange(1, len(cases)):]
            builder.selector(name, select, cases)
        else:
            name = f"a{alu_index}"
            alu_index += 1
            if control is not None and rng.random() < 0.5:
                # microcode-driven function select: the ROM word's low (or
                # next) nibble, both constrained to valid codes
                funct = control + rng.choice((".0.3", ".4.7"))
            else:
                funct = rng.choice(_FUNCTIONS)
            if waiting == "function":
                waiting = None
                funct = _bit_field(fault_rng, producers, 4)
            builder.alu(
                name,
                funct,
                _expression(rng, producers),
                _expression(rng, producers),
            )
        producers.append(name)
        component_names.append(name)

    # -- stateful tail: RAM, input and output ports -------------------------
    if spend():
        ram_bits = rng.randrange(1, config.max_memory_bits + 1)
        if control is not None and rng.random() < 0.5:
            # microcode-driven operation: bits 8..9 give read/write/in/out
            operation = f"{control}.8.9"
        else:
            operation = rng.choice(_MEMORY_OPS)
        initial = None
        if rng.random() < 0.5:
            initial = [
                rng.randrange(0, 1 << 16) for _ in range(1 << ram_bits)
            ]
        address = _bit_field(rng, producers, ram_bits)
        data = _expression(rng, producers)
        size = 1 << ram_bits
        if waiting == "address":
            waiting = None
            size = fault_rng.randrange(1, size)
            initial = initial and initial[:size]
        builder.memory(
            "ram",
            address=address,
            data=data,
            operation=operation,
            size=size,
            initial_values=initial,
        )
        producers.append("ram")
        component_names.append("ram")

    inputs: tuple[int, ...] = ()
    if rng.random() < 0.5 and spend():
        builder.memory(
            "inport",
            address=0,
            data=0,
            operation=2,
            size=1,
        )
        producers.append("inport")
        component_names.append("inport")
        inputs = tuple(
            rng.randrange(0, 1 << 16)
            for _ in range(rng.randrange(0, config.max_inputs + 1))
        )

    spend()
    builder.memory(
        "outport",
        address=0,
        data=_expression(rng, producers),
        operation=3,
        size=1,
    )
    component_names.append("outport")

    # -- wire the registers (any producer: feedback through state is fine) --
    for register in registers:
        gate = 1
        roll = rng.random()
        if roll < 0.2:
            gate = _bit_field(rng, producers, 1)
        elif roll < 0.3:
            gate = 5
        builder.register(
            register,
            data=_expression(rng, producers),
            operation=gate,
            initial_value=rng.randrange(0, 1 << 16),
        )

    # -- trace a few components so per-cycle traces carry real content ------
    traced = rng.sample(component_names,
                        k=min(len(component_names), rng.randrange(1, 4)))
    builder.trace(*traced)

    cycles = rng.randrange(config.min_cycles, config.max_cycles + 1)
    builder.cycles(cycles)

    # build(validate=True): a generator bug raises here, never later
    spec = builder.build(validate=True)
    return GeneratedMachine(
        spec=spec, seed=seed, cycles=cycles, inputs=inputs, config=config
    )


def generate_corpus(
    seed: int, count: int, config: GeneratorConfig | None = None
) -> list[GeneratedMachine]:
    """The *count* machines of the session derived from *seed*.

    Machine ``i`` uses derived seed ``seed * 1_000_003 + i``, so one corpus
    is stable under ``count`` growth: extending a session re-generates the
    same machines plus new ones.
    """
    return [
        generate_machine(seed * 1_000_003 + index, config)
        for index in range(count)
    ]
