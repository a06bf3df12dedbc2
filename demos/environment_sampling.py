"""Event source behavior: the three process kinds, side by side.

Samples each kind up to the same horizon and shows how the Poisson stream
depends on the seed while periodic and scripted sources do not, plus the
empirical mean gap of a long Poisson draw.
"""

from __future__ import annotations

from fso_sim import EventSource, PeriodicProcess, PoissonProcess, ScriptedProcess, sample_arrivals


def times(source: EventSource, seed: int, until: int = 40) -> list[int]:
    return [a.published_at for a in sample_arrivals((source,), until, seed)]


def main() -> None:
    poisson = EventSource("p", 1, PoissonProcess(rate=0.2))
    periodic = EventSource("q", 1, PeriodicProcess(period=6, offset=2))
    scripted = EventSource("s", 1, ScriptedProcess(times=(3, 9, 27)))

    print("poisson, seed 1: ", times(poisson, 1))
    print("poisson, seed 2: ", times(poisson, 2))
    print("periodic, seed 1:", times(periodic, 1))
    print("periodic, seed 2:", times(periodic, 2))
    print("scripted, seed 1:", times(scripted, 1))
    print()

    long_run = times(poisson, 42, until=100_000)
    gaps = [b - a for a, b in zip([0] + long_run, long_run)]
    print(f"poisson rate 0.2 over 100000 ticks: {len(long_run)} arrivals")
    print(f"mean gap {sum(gaps) / len(gaps):.4f} (rate suggests about 5, snapped to whole ticks)")
    print(f"smallest gap {min(gaps)}, largest gap {max(gaps)}")


if __name__ == "__main__":
    main()
