"""The benchmark's workloads: one ``repro`` CLI command each, and its pinned output.

Each workload is run serially in one process against a run store in a
fresh directory; why each was chosen is in ``BENCHMARK.json`` and
``BASELINE.md``.  ``digest`` is the SHA-256 of the command's stdout at
seed 0 (stderr carries only timing lines and is not digested); at any
other seed a pass is checked against the run's first cold pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose stdout digests are pinned below.
PINNED_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    digest: str

    def command(self, seed: int, store: str) -> list[str]:
        """CLI arguments of one pass at ``seed`` against the run store ``store``."""
        return [
            *self.argv,
            "--seed", str(seed),
            "--jobs", "1",
            "--executor", "serial",
            "--cache-dir", store,
        ]

    def pinned(self, seed: int) -> str | None:
        """The stdout digest a pass at ``seed`` must reproduce, if pinned."""
        return self.digest if seed == PINNED_SEED else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-quick",
            ("experiments", "--quick"),
            "82ad010491235ee0a24a33576db39aace36789b32b39942404ffe05191602074",
        ),
        Workload(
            "repair-fat",
            ("stream", "--policy", "timeout-repair", "--scenario", "bursty",
             "--quick", "--trials", "1024"),
            "99df53d9526309cf70f57870dc1b50b5a75bafbf0a0e56dd10dff8846a37fb79",
        ),
        Workload(
            "matrix-event",
            ("matrix", "--quick", "--backend", "event", "--trials", "4"),
            "e43205065b278403b984e35ba45b16bf6620030315a2eaab11ac92028e22903c",
        ),
    )
}
