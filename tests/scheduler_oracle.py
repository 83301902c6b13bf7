"""Reference class choice for an output port: one class per step.

This is how `fhsim.engine._Port.pick` chose a class before it kept a
bitmask of the non-empty classes. Strict priority scans the classes from
0 up. FIFO serves the oldest packet queued in any class, as the port did
when it tagged each packet with an arrival counter. Packet-counted WRR
serves the current class while it has packets and credit; otherwise it
steps to the next class, modulo the class count, and resets the credit
to that class's weight, until it can serve.
"""

from fhsim.engine import N_CLASSES


class SteppingWrr:
    """Packet-counted WRR over `weights`, starting at class 0."""

    def __init__(self, weights: tuple[int, ...]):
        self.weights = weights
        self.wrr_class = 0
        self.wrr_credit = weights[0]

    def pick(self, queues):
        """Pops and returns the head of the class served next, taking one credit."""
        while True:
            q = queues[self.wrr_class]
            if q and self.wrr_credit > 0:
                self.wrr_credit -= 1
                return q.popleft()
            self.wrr_class = (self.wrr_class + 1) % N_CLASSES
            self.wrr_credit = self.weights[self.wrr_class]


def strict_priority_pick(queues):
    """Pops and returns the head of the lowest non-empty class."""
    for q in queues:
        if q:
            return q.popleft()


def oldest_first_pick(queues):
    """Pops and returns the oldest head across the classes; entries are (class, arrival tag)."""
    return min((q for q in queues if q), key=lambda q: q[0][1]).popleft()
