"""The benchmark's host-speed probe.

The host this benchmark runs on is a small guest of a shared machine with
a slow mode the guest cannot see: for seconds up to minutes at a time
everything runs 1.4-2x slower (wall and process CPU time alike, steal
time at 0).  Runs of the same code then differ by a third and more, which
no bound of a tenth survives.  So every timed block of the benchmark is
interleaved with this probe — fixed work that belongs to the benchmark,
not to the program — and the block's times are divided by how much slower
than its reference times the probe ran beside them.

The probe must slow down as much as the program does, and interpreter-
bound code slows more than dense native loops, so it has two parts that
are timed apart:

* ``interp``, three pieces of about equal time: level-batched small GEMMs
  with gates (what a generated NumPy kernel does), a burst of tiny NumPy
  calls (dispatch-bound), pure-Python object work (what a linearizer
  does).  Against `tree_b1_py` over 15 minutes that held one 1.58x slow
  spell, the pieces read 1.48x, 1.66x and 1.46x, their mean within 3 % of
  the program's.
* ``dense``: multiply-adds over cache-resident arrays.  Against the
  scalar C loops of `tree_b1_c` over 4 minutes of slow spells the dense
  part tracked with slope 1.06, the interp part with 0.81.

A workload's slowdown weighs the two by its ``native_share`` (the part of
its time in native kernels, from the traced pass).  Nothing here imports
the program: a change to the program cannot move the probe.
"""

import json
import re
import time

import numpy as np

#: what the two parts of one `HostSpeed.sample` take on the quiet
#: reference box; they only fix the scale of the corrected times
REF_INTERP_S = 1.70e-3
REF_DENSE_S = 0.33e-3

_H = 256
_PAIR = re.compile(r"(\d+)-(\w+)")


class _Node:
    __slots__ = ("kids", "word", "height")

    def __init__(self, kids, word):
        self.kids, self.word, self.height = kids, word, None


def _full_tree(depth, counter):
    counter[0] += 1
    if depth == 0:
        return _Node((), counter[0])
    return _Node((_full_tree(depth - 1, counter),
                  _full_tree(depth - 1, counter)), counter[0])


def _dense_arrays(g, n=16384):
    """Three float32 arrays at fixed offsets in one page-aligned buffer:
    where an allocator happens to put them changes how fast vector loads
    run, by up to 1.7x from one process to the next."""
    stride = n * 4 + 256  # not a multiple of a page: no 4K aliasing
    raw = np.empty(3 * stride + 4096, np.uint8)
    base = -raw.ctypes.data % 4096
    x, y, z = (raw[base + k * stride:base + k * stride + n * 4]
               .view(np.float32) for k in range(3))
    x[:] = g.standard_normal(n)
    y[:] = g.standard_normal(n)
    return x, y, z


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class HostSpeed:
    """`sample()` runs the fixed work once and returns the seconds of
    its (interp, dense) parts."""

    def __init__(self):
        g = np.random.default_rng(1)
        self.w = g.standard_normal((_H, 4 * _H)).astype(np.float32) * 0.05
        self.u = g.standard_normal((_H, 4 * _H)).astype(np.float32) * 0.05
        self.h = g.standard_normal((64, _H)).astype(np.float32)
        self.c = g.standard_normal((64, _H)).astype(np.float32)
        # (rows written, left children, right children) of three levels
        self.levels = [
            (np.arange(out, out + n), np.arange(kid, kid + n),
             np.arange(kid + n, kid + 2 * n))
            for out, kid, n in ((30, 0, 6), (36, 12, 3), (39, 18, 1))]
        self.x, self.y, self.z = _dense_arrays(g)
        for _ in range(50):  # its own lazy set-up is not the host's speed
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self._gemm_levels()
        for _ in range(3):
            self._tiny_calls()
        for _ in range(6):
            self._objects()
        t1 = time.perf_counter()
        x, y, z = self.x, self.y, self.z
        for _ in range(80):
            np.multiply(x, y, out=z)
            np.add(z, y, out=z)
        return t1 - t0, time.perf_counter() - t1

    def burst(self, n):
        return [self.sample() for _ in range(n)]

    def _gemm_levels(self):
        h, c, H = self.h, self.c, _H
        for out, left, right in self.levels:
            g = h[left] @ self.w + h[right] @ self.u
            i, f, o, u = (g[:, k * H:(k + 1) * H] for k in range(4))
            cell = (_sigmoid(i) * np.tanh(u)
                    + _sigmoid(f) * (c[left] + c[right]))
            c[out] = np.clip(cell, -3.0, 3.0)
            h[out] = _sigmoid(o) * np.tanh(cell)

    def _tiny_calls(self):
        a, b = self.h[:4], self.c[:4]
        for _ in range(12):
            s = np.add(a, b)
            s = np.multiply(s, a, out=s)
            order = np.argsort(np.maximum(s, 0).sum(axis=1))
            both = np.concatenate([a, b])[order]
            kept = np.where(both > 0, both, 0.0)
            z = np.empty((4, _H), np.float32)
            z[:] = kept[:4]
            np.ascontiguousarray(z.T).reshape(-1)[:16].astype(np.int32)

    def _objects(self):
        root = _full_tree(5, [0])
        order, stack, by_height = [], [root], {}
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.kids)
        for node in reversed(order):
            node.height = 1 + max((k.height for k in node.kids), default=-1)
            by_height.setdefault(node.height, []).append(node.word)
        back = json.loads(json.dumps({str(k): v
                                      for k, v in by_height.items()}))
        sorted(back, key=lambda k: (len(back[k]), k))
        _PAIR.findall("-".join(f"{len(v)}-{k}" for k, v in back.items()))


def slowdown(samples, native_share=0.0):
    """How many times slower than the reference box the host ran for a
    workload that spends ``native_share`` of its time in native kernels,
    from the medians of the probe samples taken beside a timed block."""
    interp, dense = np.median(np.asarray(samples), axis=0)
    return float((1.0 - native_share) * interp / REF_INTERP_S
                 + native_share * dense / REF_DENSE_S)
