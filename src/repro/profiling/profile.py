"""Basic-block profiling (Section 4 of the paper).

The paper profiles inside the simulator with the same input as the
experimental run ("a high level of fidelity between the profile and the
actual run") and defines the profiling delinquent set Delta_P as all loads
in the basic blocks that cumulatively account for 90% of the compute
cycles.  Cycles are approximated by executed instructions (every
instruction in a block executes once per block entry), the same
approximation that makes 124.m88ksim's coverage poor in the paper —
block-entry frequency is not cache-stall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.asm.program import Program
from repro.machine.simulator import ExecutionResult

HOTSPOT_CYCLE_SHARE = 0.90


def _hottest(cycles: Mapping[int, int], share: float) -> set[int]:
    """The fewest blocks, hottest first (ties: lowest leader), that
    cumulatively cover ``share`` of ``cycles``' total."""
    total = sum(cycles.values())
    chosen: set[int] = set()
    covered = 0
    for leader, weight in sorted(cycles.items(),
                                 key=lambda item: (-item[1], item[0])):
        if weight == 0 or covered >= share * total:
            break
        chosen.add(leader)
        covered += weight
    return chosen


@dataclass
class BlockProfile:
    """Execution profile of one run at basic-block granularity."""

    program: Program
    block_counts: dict[int, int]
    block_sizes: dict[int, int]

    @classmethod
    def from_execution(cls, program: Program,
                       result: ExecutionResult) -> "BlockProfile":
        return cls.from_block_counts(program, result.block_counts)

    @classmethod
    def from_block_counts(cls, program: Program,
                          block_counts: Mapping[int, int]
                          ) -> "BlockProfile":
        """Rebuild a profile from bare block-entry counts.

        Block sizes are derived from the sorted leaders (every leader
        runs to the next leader, the last to ``text_end``), so entry
        counts alone — an execution result, a cache payload, a trace
        store meta record — fully determine the profile.
        """
        leaders = sorted(block_counts)
        sizes: dict[int, int] = {}
        for position, leader in enumerate(leaders):
            end = leaders[position + 1] if position + 1 < len(leaders) \
                else program.text_end
            sizes[leader] = (end - leader) // 4
        return cls(program=program,
                   block_counts=dict(block_counts),
                   block_sizes=sizes)

    # ------------------------------------------------------------------
    @property
    def block_cycles(self) -> dict[int, int]:
        return {leader: count * self.block_sizes.get(leader, 1)
                for leader, count in self.block_counts.items()}

    @property
    def total_cycles(self) -> int:
        return sum(self.block_cycles.values())

    def hotspot_blocks(self,
                       share: float = HOTSPOT_CYCLE_SHARE) -> set[int]:
        """Leaders of the blocks cumulatively covering ``share`` cycles."""
        return _hottest(self.block_cycles, share)

    # -- stall-aware cycle model (extension) ---------------------------
    def stall_aware_cycles(self, load_misses: Mapping[int, int],
                           penalty: int = 20) -> dict[int, int]:
        """Block cycles including modelled miss stalls.

        The paper observes that block-entry counting "is not necessary
        the same as the blocks that account for most of the execution
        cycles" and blames m88ksim's poor profiling coverage on exactly
        that.  This model charges ``penalty`` extra cycles per load miss
        to the block containing the load, which pulls miss-heavy blocks
        into the hotspot set even when they are entered rarely.
        """
        cycles = dict(self.block_cycles)
        leaders = sorted(self.block_sizes)
        if not leaders:
            return cycles
        import bisect
        for pc, misses in load_misses.items():
            position = bisect.bisect_right(leaders, pc) - 1
            if position < 0:
                continue
            leader = leaders[position]
            if pc < leader + 4 * self.block_sizes[leader]:
                cycles[leader] = cycles.get(leader, 0) \
                    + penalty * misses
        return cycles

    def hotspot_blocks_stall_aware(self, load_misses: Mapping[int, int],
                                   penalty: int = 20,
                                   share: float = HOTSPOT_CYCLE_SHARE
                                   ) -> set[int]:
        """Hotspot set under the stall-aware cycle model."""
        return _hottest(self.stall_aware_cycles(load_misses, penalty),
                        share)

    def hotspot_loads_stall_aware(self, load_misses: Mapping[int, int],
                                  penalty: int = 20,
                                  share: float = HOTSPOT_CYCLE_SHARE
                                  ) -> set[int]:
        """Delta_P under the stall-aware model."""
        hot = self.hotspot_blocks_stall_aware(load_misses, penalty,
                                              share)
        return self._loads_in_blocks(hot)

    def hotspot_loads(self,
                      share: float = HOTSPOT_CYCLE_SHARE) -> set[int]:
        """Delta_P: every static load inside a hotspot block."""
        hot = self.hotspot_blocks(share)
        return self._loads_in_blocks(hot)

    def _loads_in_blocks(self, hot: set[int]) -> set[int]:
        if not hot:
            return set()
        leaders = sorted(self.block_sizes)
        loads: set[int] = set()
        for leader in hot:
            size = self.block_sizes[leader]
            for address in range(leader, leader + 4 * size, 4):
                try:
                    if self.program.instruction_at(address).is_load:
                        loads.add(address)
                except ValueError:
                    break
        return loads

    def load_exec_counts(self) -> dict[int, int]:
        """E(i) for every static load (block-entry count of its block)."""
        counts: dict[int, int] = {}
        for leader, count in self.block_counts.items():
            size = self.block_sizes.get(leader, 0)
            for address in range(leader, leader + 4 * size, 4):
                try:
                    instr = self.program.instruction_at(address)
                except ValueError:
                    break
                if instr.is_load:
                    counts[address] = count
        for address, _ in self.program.loads():
            counts.setdefault(address, 0)
        return counts
