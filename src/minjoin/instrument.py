"""Step counting for complexity assertions.

Counters tally row-level operations (tuple visits, emissions, probe
rounds); tests and the bench harness compare them across scaling
families instead of trusting wall clocks.
"""


class StepCounter:
    __slots__ = ("steps",)

    def __init__(self):
        self.steps = 0

    def add(self, n: int = 1):
        self.steps += n

    def __repr__(self):
        return f"StepCounter({self.steps})"
