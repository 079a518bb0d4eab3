"""Step counts across doublings of the database.

Build work for the ranked index stays within |D| * log^2 |D| (a sort of
every join bucket, and per row a logarithmic set of fork-block cuts),
probe counts per access grow by a couple per doubling, and enumeration
delay does not move at all.
"""

from minjoin.bench import bench_enum_pred, bench_min_da, default_sizes

sizes = default_sizes(10, 13)  # bump to (10, 16) for the full sweep

print("star family: ranked-access index build")
print(f"{'|D|':>8} {'build steps':>12} {'steps/(n log^2 n)':>18} {'max probes':>11}")
for row in bench_min_da(sizes, seed=1, access_samples=100):
    print(
        f"{row['size']:>8} {row['build_steps']:>12} "
        f"{row['normalized']:>18.3f} {row['max_probes']:>11}"
    )

print()
print("path family: predicate enumeration delay")
print(f"{'|D|':>8} {'answers drained':>15} {'max delay':>10} {'avg delay':>10}")
for row in bench_enum_pred(sizes, seed=1, emissions=20000):
    print(
        f"{row['size']:>8} {row['emitted']:>15} "
        f"{row['max_delay']:>10} {row['avg_delay']:>10.3f}"
    )

print()
print("normalized build cost is flat within 2x and delay is constant:")
print("that is the whole point.")
