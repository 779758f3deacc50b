"""The paper's headline workload: a stack machine running the Sieve of
Eratosthenes (Appendix D / Figure 5.1).

The script assembles the sieve for the bundled stack machine ISA, builds the
microcoded RTL stack machine around it, runs it on both backends, checks the
primes against an independent reference, and reproduces the Figure 5.1
timing comparison on this host.

Run with:  python examples/sieve_stack_machine.py [sieve-size]
"""

import sys
import time

from repro import Simulator
from repro.compiler import CodegenOptions
from repro.compiler.compiled import CompiledBackend
from repro.interp.interpreter import InterpreterBackend
from repro.machines import build_stack_machine, expected_primes, prepare_sieve_workload


def main(size: int = 20) -> None:
    # --- prepare the workload ----------------------------------------------------
    workload = prepare_sieve_workload(size)
    machine = build_stack_machine(workload.program)
    cycles = workload.cycles_needed
    print(f"Sieve size {size}: {len(workload.program)} instructions of program,")
    print(f"{workload.instructions_executed} instructions executed, "
          f"{cycles} machine cycles at 4 cycles/instruction.")
    print("Machine:", machine.spec.summary())
    print()

    # --- run on the compiled backend and check the primes -------------------------
    result = Simulator(machine.spec, backend="compiled").run(cycles=cycles)
    primes, count = result.output_integers()[:-1], result.output_integers()[-1]
    print("Primes produced by the simulated hardware:", primes)
    print("Prime count reported by the program:", count)
    assert primes == expected_primes(size), "simulated primes disagree with reference!"
    print("Reference check passed.")
    print()

    # --- Figure 5.1: interpreter vs compiler timing --------------------------------
    print("Figure 5.1 style timing comparison on this host (seconds):")
    start = time.perf_counter()
    interpreter = InterpreterBackend().prepare(machine.spec)
    tables_seconds = time.perf_counter() - start
    start = time.perf_counter()
    interpreter.run(cycles=cycles, trace=False, collect_stats=False)
    interp_seconds = time.perf_counter() - start

    compiled = CompiledBackend(CodegenOptions.fastest()).prepare(machine.spec)
    # the run byte-compiles `simulate` on first use: that is compile time
    # (read after the run), and run_seconds leaves it out
    compiled_seconds = compiled.run(cycles=cycles, trace=False,
                                    collect_stats=False).run_seconds

    print(f"  ASIM    generate tables {tables_seconds:10.4f}")
    print(f"  ASIM    simulation      {interp_seconds:10.4f}")
    print(f"  ASIM II generate code   {compiled.generate_seconds:10.4f}")
    print(f"  ASIM II compile         {compiled.compile_seconds:10.4f}")
    print(f"  ASIM II simulation      {compiled_seconds:10.4f}")
    print(f"  simulation speedup: {interp_seconds / compiled_seconds:.1f}x "
          "(the paper reports roughly 20x)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
