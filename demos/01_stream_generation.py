"""Walk through unary stream generation, one clock cycle at a time.

A word v with width m becomes a stream of 2**m bits holding exactly v ones.
The FSM generator emits the ones first: its remainder register counts the
ones still owed, and the OR of the register bits is the output.
"""

from unarysort import (
    FsmGenerator,
    counter_generate,
    decode,
    emission_str,
    fsm_generate,
    written_str,
)

WIDTH = 3

print(f"=== FSM generator, value 4 of {1 << WIDTH} (0.5 full scale) ===")
unit = FsmGenerator(4, WIDTH)
print("cycle  bit  remainder  state")
for cycle in range(1, (1 << WIDTH) + 1):
    bit = unit.step()
    state = "emitting" if unit.remainder else "done"
    print(f"{cycle:5d}  {bit:3d}  {unit.remainder:9d}  {state}")

print()
print("Both generators, written side by side:")
print("value  fsm emission  fsm written  counter emission")
for value in range(1 << WIDTH):
    fsm = fsm_generate(value, WIDTH)
    counter = counter_generate(value, WIDTH)
    print(
        f"{value:5d}  {emission_str(fsm)}      {written_str(fsm)}     "
        f"{emission_str(counter)}"
    )

print()
print("The counter-based circuit delivers the same popcount in the opposite")
print("order; the two conventions always encode the same value:")
fsm, counter = fsm_generate(5, WIDTH), counter_generate(5, WIDTH)
print("decode(fsm).value == decode(counter).value for 5:",
      decode(fsm).value == decode(counter).value)
