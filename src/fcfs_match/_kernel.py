"""Simulation kernel: directed FCFS over a slice of pre-coded events.

Waiting agents live in one deque of arrival indices per agent type. The
first-appearance order of the waiting list (the nonempty types sorted by the
arrival index of their oldest agent) is kept as a list: it changes only when
an agent joins an empty queue (the type is appended) or a good takes a
queue's oldest agent (the type moves back by its new head, or leaves). An
arriving good matches the first type in that order it is compatible with,
which is the earliest-arrived compatible agent. Occupancy of each order is
tallied as run lengths between changes, at every agent-type count.
Matches, delays and squared delays are counted per edge, in model.edge_list
order, and losses per good type; every good is matched or lost, so a batch's
goods are its matches plus its losses.

Events arrive as integer codes: t < n_agent is an agent of type t, and
n_agent + j is a good of type j. simulator.run derives them from the
uniforms with numpy, so the loop does no float comparison or type lookup.
The caller merges each batch's occupancy dict into sparse (order row, batch,
count) entries.
"""

from __future__ import annotations

# items per chunk of the uniform stream, which reads as rng.random((2, CHUNK)):
# the stream's layout, not a buffer size, so changing it changes every result
CHUNK = 1_000_000
SLICE = 8_192  # events coded and converted to Python ints at a time


class BatchTally:
    """Counters of one batch: one per edge, in model.edge_list order, for the
    matches, delays and squared delays, and one per good type for the losses."""

    __slots__ = ("match_counts", "delay_sums", "delay_sqs", "loss_counts", "occupancy")

    def __init__(self, n_edge: int, n_good: int):
        self.match_counts = [0] * n_edge
        self.delay_sums = [0] * n_edge
        self.delay_sqs = [0.0] * n_edge
        self.loss_counts = [0] * n_good
        # order (tuple of type indices) -> events that ended with that order
        self.occupancy: dict[tuple[int, ...], int] = {}


def sim_slice(codes, n, n_agent, edge_of, queues, order, tally):
    """Process the events n, n+1, ... given by the int list codes.

    edge_of[j][i] is the index of the edge (good type j, agent type i), or
    None where j does not serve i. queues and order are mutated in place and
    carry over to the next slice; counters go to tally. Returns the number of
    agents that arrived.
    """
    mc = tally.match_counts
    ds = tally.delay_sums
    dq = tally.delay_sqs
    lc = tally.loss_counts
    occ = tally.occupancy
    key = tuple(order)
    run_start = n
    agents = 0
    for c in codes:
        changed = False
        if c < n_agent:
            q = queues[c]
            q.append(n)
            agents += 1
            if len(q) == 1:
                order.append(c)
                changed = True
        else:
            j = c - n_agent
            row = edge_of[j]
            for k, i in enumerate(order):
                e = row[i]
                if e is not None:
                    q = queues[i]
                    d = n - q.popleft()
                    mc[e] += 1
                    ds[e] += d
                    dq[e] += float(d * d)
                    if q:
                        head = q[0]
                        end = len(order)
                        pos = k + 1
                        while pos < end and queues[order[pos]][0] < head:
                            pos += 1
                        if pos > k + 1:
                            del order[k]
                            order.insert(pos - 1, i)
                            changed = True
                    else:
                        del order[k]
                        changed = True
                    break
            else:
                lc[j] += 1
        if changed:
            if n > run_start:
                occ[key] = occ.get(key, 0) + n - run_start
                run_start = n
            key = tuple(order)
        n += 1
    if n > run_start:
        occ[key] = occ.get(key, 0) + n - run_start
    return agents
