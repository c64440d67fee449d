"""Cycle-by-cycle walkthrough of the ascending-order sorting engine.

Inputs 4, 6, 4 at width 3 (0.5, 0.75, 0.5 of full scale).  The two equal
minima emit their first 0 together in generation cycle 5; the detector
counts 2, and the controller drains them one write per cycle with no index
choice (both hold the value rebuilt from the frozen cycle counter,
cycle - 1 = 4).
"""

from unarysort import MinSortEngine

engine = MinSortEngine([4, 6, 4], 3)
engine.run()

print("inputs :", [4, 6, 4], "width 3")
print("outputs:", engine.outputs)
print()
print("cycle  phase    gen.cycle  detected       write")
for e in engine.trace.events:
    detected = ",".join(str(i) for i in e.detected) or "-"
    write = ",".join(f"mem[{a}]<-{v}" for a, v in e.writes) or "-"
    print(
        f"{e.cycle:5d}  {e.phase.value:7s}  {e.elapsed:9d}  "
        f"{detected:13s}  {write}"
    )

print()
print("total cycles:", engine.trace.total_cycles(), "(= max input + 1 + writes)")
print()
print("Trace CSV, as emitted by the CLI's --trace flag:")
for row in engine.trace.csv_rows():
    print(" ", row)
