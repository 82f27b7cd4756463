"""Seeded scenario generators for the benchmark workloads.

Every generator returns scenario JSON texts; the program under test only
ever sees that text.  While it writes steps, a generator keeps a small model
of what the simulator will do with them: the bump-allocation layout of every
partition, which payload bytes are initialized, and how many messages each
port holds.  From that model it writes the scenario's ``expect`` list, so a
MATCH verdict confirms that simulator and model agree on every finding.

No generated scenario declares a ``major_frame``.
"""

from __future__ import annotations

import json
import random
from collections import deque
from importlib import resources

#: Bytes below the first region of every partition (the simulator's null guard).
NULL_GUARD = 16

KIB = 1024
MIB = 1024 * KIB

#: Generated scenarios in one campaign pass; the 12 builtins come on top.
CAMPAIGN_GENERATED = 1008
#: Workload steps in the step_mix scenario.
STEP_MIX_STEPS = 20_000

_SYSCALL_TYPES = {"req_t": 8, "resp_t": 16}
_SYSCALL_TEMPLATE = (
    "//!USER_NAME: {user}\n"
    "//!PRE: msan_check(&req, sizeof(req));\n"
    "//!POST: msan_unpoison(resp, sizeof(*resp));\n"
    "syscall_declare(int, {name}, req_t, req, resp_t*, resp);\n"
)


class Partition:
    """Layout and per-byte initialization model of one partition."""

    def __init__(self, pid, regions, memory_size=4 * KIB, granularity=8, redzone=16,
                 processes=()):
        self.pid = pid
        self.memory_size = memory_size
        self.granularity = granularity
        self.redzone = redzone
        self.sizes = dict(regions)
        self.processes = list(processes)
        self.base = {}
        cursor = NULL_GUARD
        for label, size in regions:
            self.base[label] = cursor + redzone
            aligned = -(-size // granularity) * granularity
            cursor += 2 * redzone + aligned
        if cursor > memory_size:
            raise ValueError(f"regions of partition {pid} need {cursor} bytes")
        self.reset_init()

    def reset_init(self):
        self.init = {label: bytearray(size) for label, size in self.sizes.items()}

    def config(self):
        conf = {
            "id": self.pid,
            "memory_size": self.memory_size,
            "granularity": self.granularity,
            "redzone": self.redzone,
            "regions": [{"label": l, "size": s} for l, s in self.sizes.items()],
        }
        if self.processes:
            conf["processes"] = self.processes
        return conf

    def mark(self, label, off, n):
        self.init[label][off : off + n] = b"\x01" * n

    def copy(self, src, src_off, dst, dst_off, n):
        self.init[dst][dst_off : dst_off + n] = self.init[src][src_off : src_off + n]

    def init_span(self, rng, labels, n_min, n_max):
        """A random fully initialized span of n_min..n_max bytes, or None."""
        for label in rng.sample(labels, len(labels)):
            bits = self.init[label]
            runs, i = [], 0
            while True:
                start = bits.find(1, i)
                if start < 0:
                    break
                end = bits.find(0, start)
                end = len(bits) if end < 0 else end
                if end - start >= n_min:
                    runs.append((start, end))
                i = end
            if runs:
                start, end = rng.choice(runs)
                n = rng.randint(n_min, min(n_max, end - start))
                return label, rng.randint(start, end - n), n
        return None


class Port:
    """Queue occupancy (queueing) or latest message length (sampling)."""

    def __init__(self, name, kind, source, destination, max_size, depth):
        self.name = name
        self.kind = kind
        self.source = source
        self.destination = destination
        self.max_size = max_size
        self.depth = depth  # queue capacity, or refresh period
        self.held = deque()
        self.latest = None

    def config(self):
        conf = {"name": self.name, "kind": self.kind, "source": self.source,
                "max_message_size": self.max_size}
        if self.destination is not None:
            conf["destination"] = self.destination
        conf["capacity" if self.kind == "queueing" else "refresh_period"] = self.depth
        return conf


class ScenarioWriter:
    """Emits steps against the model and collects the expected findings."""

    def __init__(self, name, rng, max_span=64):
        self.name = name
        self.rng = rng
        self.max_span = max_span
        self.parts = {}
        self.ports = {}
        self.time = {}
        self.syscall = None
        self.steps = []
        self.expect = []

    # -- declarations -------------------------------------------------------

    def add_partition(self, part, writable=None):
        part.writable = list(writable or part.sizes)
        self.parts[part.pid] = part

    def add_port(self, port):
        self.ports[port.name] = port

    def add_syscall(self, user, name):
        self.syscall = (user, _SYSCALL_TEMPLATE.format(user=user, name=name))

    def text(self):
        doc = {
            "name": self.name,
            "partitions": [p.config() for p in self.parts.values()],
            "time": self.time,
            "ports": [p.config() for p in self.ports.values()],
            "workload": self.steps,
            "expect": self.expect,
        }
        if self.syscall is not None:
            doc["types"] = dict(_SYSCALL_TYPES)
            doc["syscalls"] = [self.syscall[1]]
        return json.dumps(doc, separators=(",", ":"))

    def _step(self, op, part, **fields):
        step = {"op": op}
        if part is not None:
            step["partition"] = part.pid
        step.update(fields)
        self.steps.append(step)

    def _expect(self, kind, part, **fields):
        self.expect.append({"kind": kind, "partition": part.pid, **fields})

    def _initialized(self, part, n_min, n_max, labels=None):
        """An initialized span, written first when the model has none."""
        labels = labels or list(part.sizes)
        span = part.init_span(self.rng, labels, n_min, n_max)
        if span is None:
            label = self.rng.choice(
                [l for l in labels if l in part.writable and part.sizes[l] >= n_min])
            n = self.rng.randint(n_min, min(n_max, part.sizes[label]))
            off = self.rng.randint(0, part.sizes[label] - n)
            self.write(part, label, off, n)
            span = (label, off, n)
        return span

    def _span(self, part, label, n_max):
        size = part.sizes[label]
        n = self.rng.randint(1, min(n_max, size))
        return self.rng.randint(0, size - n), n

    # -- clean operations ---------------------------------------------------

    def write(self, part, label=None, off=None, n=None):
        rng = self.rng
        label = label or rng.choice(part.writable)
        if n is None:
            off, n = self._span(part, label, self.max_span)
        fields = {"region": label, "offset": off}
        if n <= 64 and rng.random() < 0.5:
            fields["data"] = rng.randbytes(n).hex()
        else:
            fields.update(fill=rng.randrange(256), len=n)
        self._step("WRITE", part, **fields)
        part.mark(label, off, n)

    def read(self, part):
        label = self.rng.choice(list(part.sizes))
        off, n = self._span(part, label, self.max_span)
        self._step("READ", part, region=label, offset=off, len=n)

    def copy(self, part, n=None):
        rng = self.rng
        src = rng.choice(list(part.sizes))
        dst = rng.choice(part.writable)
        n = n or rng.randint(1, min(self.max_span, part.sizes[src], part.sizes[dst]))
        src_off = rng.randint(0, part.sizes[src] - n)
        dst_off = rng.randint(0, part.sizes[dst] - n)
        self._step("COPY", part, src_region=src, src_offset=src_off,
                   dst_region=dst, dst_offset=dst_off, len=n)
        part.copy(src, src_off, dst, dst_off, n)
        return dst, dst_off, n

    def branch(self, part, span=None):
        """Branch on ``span`` (default: an initialized one) and expect a
        finding when the model holds an uninitialized byte there."""
        label, off, n = span or self._initialized(part, 1, self.max_span)
        self._step("BRANCH_ON", part, region=label, offset=off, len=n)
        bad = part.init[label].find(0, off, off + n)
        if bad >= 0:
            self._expect("UNINIT_USE", part, offset=part.base[label] + bad,
                         context="BRANCH")

    def _operand(self, part, width):
        """A memory operand over initialized bytes, or a small immediate."""
        if self.rng.random() < 0.3:
            return self.rng.randrange(1 << (8 * width))
        label, off, _ = self._initialized(part, width, width)
        return {"region": label, "offset": off}

    def arith(self, part):
        rng = self.rng
        if rng.random() < 0.3:
            kind = rng.choice(("i32", "i64"))
            a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        else:
            kind = rng.choice(("u8", "u16", "u32", "u64"))
            width = int(kind[1:]) // 8
            a, b = self._operand(part, width), self._operand(part, width)
        self._step("ARITH", part, arith=rng.choice(("ADD", "SUB", "MUL")), type=kind,
                   a=a, b=b)

    def shift(self, part):
        kind = self.rng.choice(("u8", "u16", "u32", "u64"))
        bits = int(kind[1:])
        self._step("SHIFT", part, type=kind, a=self._operand(part, bits // 8),
                   s=self.rng.randrange(bits))

    def div(self, part):
        kind = self.rng.choice(("u16", "u32"))
        a = self._operand(part, int(kind[1:]) // 8)
        self._step("DIV", part, type=kind, a=a, b=self.rng.randint(1, 255))

    def syscall_step(self, part):
        rng = self.rng
        req_label, req_off, _ = self._initialized(part, 8, 8)
        resp_label = rng.choice([l for l in part.writable if part.sizes[l] >= 16])
        resp_off = rng.randint(0, part.sizes[resp_label] - 16)
        succeed = rng.random() < 0.8
        self._step("SYSCALL", part, name=self.syscall[0], succeed=succeed, bindings={
            "req": {"region": req_label, "offset": req_off},
            "resp": {"region": resp_label, "offset": resp_off},
        })
        if succeed:
            part.mark(resp_label, resp_off, 16)

    def send(self, port, labels=None):
        """Send a fully initialized message; a full queue drops it."""
        part = self.parts[port.source]
        label, off, n = self._initialized(part, 1, port.max_size, labels)
        op = "SEND" if port.kind == "queueing" else "SAMPLING_WRITE"
        self._step(op, part, port=port.name, region=label, offset=off, len=n)
        if port.kind == "sampling":
            port.latest = n
        elif len(port.held) >= port.depth:
            self._expect("QUEUE_FULL", part)
        else:
            port.held.append(n)

    def receive(self, port, label):
        """Receive into ``label``, which has room for the largest message."""
        part = self.parts[port.destination]
        off = self.rng.randint(0, part.sizes[label] - port.max_size)
        if port.kind == "queueing":
            self._step("RECEIVE", part, port=port.name, region=label, offset=off)
            n = port.held.popleft() if port.held else None
        else:
            self._step("SAMPLING_READ", part, port=port.name, region=label, offset=off)
            n = port.latest
        if n is not None:
            part.mark(label, off, n)

    def idle(self):
        self._step("IDLE", None, ticks=self.rng.randint(1, 20))

    def small_checks(self, part):
        """One of the cheap value-domain checks, always in range."""
        rng = self.rng
        label = rng.choice(list(part.sizes))
        choice = rng.randrange(6)
        if choice == 0:
            self._step("ALIGN_CHECK", part, region=label, offset=0,
                       align=rng.choice((1, 2, 4)))
        elif choice == 1:
            self._step("NULL_CHECK", part, region=label, offset=0)
        elif choice == 2:
            self._step("BOOL_CHECK", part, a=rng.randint(0, 1))
        elif choice == 3:
            self._step("ENUM_CHECK", part, a=2, enum="mode", allowed=[0, 1, 2, 3])
        elif choice == 4:
            self._step("TRUNC", part, **{"from": "i32", "to": "i16",
                                         "a": rng.randint(-30000, 30000)})
        else:
            self._step("GET_MY_ID", part, caller="main", expect="MAIN_PROCESS_ID")

    # -- injected faults ------------------------------------------------------

    def overflow(self, part):
        """Write across a payload edge into a redzone."""
        rng = self.rng
        label = rng.choice(list(part.sizes))
        size, base = part.sizes[label], part.base[label]
        if rng.random() < 0.5:
            a, b = rng.randint(1, min(size, 8)), rng.randint(1, part.redzone)
            off, n, kind, bad = size - a, a + b, "RIGHT_REDZONE", base + size
        else:
            k = rng.randint(1, part.redzone)
            off, n, kind, bad = -k, rng.randint(1, k + min(size, 8)), "LEFT_REDZONE", base - k
        self._step("WRITE", part, region=label, offset=off, data=rng.randbytes(n).hex())
        self._expect(kind, part, offset=bad)

    def uninit_branch(self, part):
        """Branch on a span holding uninitialized bytes; False when none is left."""
        rng = self.rng
        for label in rng.sample(list(part.sizes), len(part.sizes)):
            bits = part.init[label]
            zero = bits.find(0, rng.randrange(len(bits)))
            zero = bits.find(0) if zero < 0 else zero
            if zero < 0:
                continue
            lo = max(0, zero - self.max_span + 1)
            off = rng.randint(lo, zero)
            n = rng.randint(zero - off + 1, min(self.max_span, len(bits) - off))
            bad = bits.find(0, off, off + n)
            self._step("BRANCH_ON", part, region=label, offset=off, len=n)
            self._expect("UNINIT_USE", part, offset=part.base[label] + bad,
                         context="BRANCH")
            return True
        return False

    def div_zero(self, part):
        self._step("DIV", part, type="u32", a=self.rng.randrange(1 << 32), b=0)
        self._expect("DIV_BY_ZERO", part)

    def oversize(self, port):
        part = self.parts[port.source]
        n = port.max_size + self.rng.randint(1, 8)
        self._step("SEND", part, port=port.name, region=self.rng.choice(list(part.sizes)),
                   offset=0, len=n)
        self._expect("MESSAGE_TOO_LONG", part)

    def fill_queue(self, port):
        """Send until the queue is full, then once more (the drop)."""
        for _ in range(port.depth - len(port.held) + 1):
            self.send(port)

    def use_after_reset(self, part):
        """Reset, touch an old region, then rebuild the same layout."""
        rng = self.rng
        self._step("RESET_PARTITION", part)
        label = rng.choice(list(part.sizes))
        off = rng.randrange(part.sizes[label])
        n = rng.randint(1, min(self.max_span, part.sizes[label] - off))
        self._step("READ", part, offset=part.base[label] + off, len=n)
        self._expect("PARTITION_RESET", part, offset=part.base[label] + off)
        for label, size in part.sizes.items():
            self._step("ALLOC", part, label=label, size=size)
        self._step("START_PARTITION", part)
        part.reset_init()


# -- campaign -----------------------------------------------------------------


def builtin_texts():
    """The package's builtin scenarios, as JSON text, in name order."""
    root = resources.files("partsan.scenarios")
    names = sorted(e.name for e in root.iterdir() if e.name.endswith(".json"))
    return [(root / name).read_text(encoding="utf-8") for name in names]


def _campaign_scenario(rng, name):
    w = ScenarioWriter(name, rng)
    for pid in range(1, rng.randint(1, 3) + 1):
        regions = [(f"r{i}", rng.randint(16, 160)) for i in range(rng.randint(2, 4))]
        processes = []
        if rng.random() < 0.5:
            capacity = rng.randint(5, 40)
            processes.append({"id": 1, "priority": 2, "time_capacity": capacity,
                              "period": capacity + rng.randint(0, 80)})
            processes.append({"id": 2, "priority": 1, "time_capacity": rng.randint(5, 40)})
        w.add_partition(Partition(pid, regions, granularity=rng.choice((4, 8, 16)),
                                  redzone=rng.choice((16, 32)), processes=processes))
    if len(w.parts) >= 2:
        w.add_port(Port("q", "queueing", 1, 2, rng.choice((8, 16)), rng.randint(2, 4)))
        w.add_port(Port("s", "sampling", 2, 1, rng.choice((8, 16)), rng.randint(5, 50)))
    elif rng.random() < 0.5:
        w.add_port(Port("q", "queueing", 1, None, rng.choice((8, 16)), rng.randint(2, 4)))
    if rng.random() < 0.5:
        w.add_syscall("query", f"sys_query_{rng.randrange(1000)}")
    w.time = {
        "slowdown_factor": rng.choice((1, 2, "3/2")),
        "costs": {"base_step": 1, "asan_check": rng.randint(0, 2),
                  "msan_check": rng.randint(0, 2), "ub_check": rng.randint(0, 1)},
    }

    parts = list(w.parts.values())
    queue = w.ports.get("q")
    kinds = ["overflow", "uninit", "div_zero", "reset"]
    if queue is not None:
        kinds += ["oversize", "full"]
    faults = [rng.choice(kinds) for _ in range(rng.choice((1, 1, 2)))]
    reserve = {"full": 6, "reset": 7}
    remaining = sum(reserve.get(f, 1) for f in faults)
    target = rng.randint(8, 60)

    clean = ["write", "write", "read", "copy", "branch", "branch", "arith", "shift", "div",
             "idle", "checks"]
    if w.syscall is not None:
        clean += ["syscall", "syscall"]
    if queue is not None:
        clean += ["send"]
    if queue is not None and queue.destination is not None:
        clean += ["send", "receive", "sampling_write", "sampling_read"]

    while faults or len(w.steps) + remaining + 2 <= target:
        fault_due = len(w.steps) + remaining + 2 > target or rng.random() < 0.1
        if faults and fault_due:
            fault = faults.pop()
            remaining -= reserve.get(fault, 1)
            part = rng.choice(parts)
            if fault == "overflow":
                w.overflow(part)
            elif fault == "uninit":
                if not w.uninit_branch(part):
                    w.div_zero(part)
            elif fault == "div_zero":
                w.div_zero(part)
            elif fault == "reset":
                w.use_after_reset(part)
            elif fault == "oversize":
                w.oversize(queue)
            else:
                w.fill_queue(queue)
            continue
        op = rng.choice(clean)
        part = rng.choice(parts)
        if op == "write":
            w.write(part)
        elif op == "read":
            w.read(part)
        elif op == "copy":
            w.copy(part)
        elif op == "branch":
            w.branch(part)
        elif op == "arith":
            w.arith(part)
        elif op == "shift":
            w.shift(part)
        elif op == "div":
            w.div(part)
        elif op == "idle":
            w.idle()
        elif op == "checks":
            w.small_checks(part)
        elif op == "syscall":
            w.syscall_step(part)
        elif op == "send":
            if len(queue.held) < queue.depth:
                w.send(queue)
        elif op == "receive":
            w.receive(queue, _roomy_label(w.parts[2], queue.max_size))
        elif op == "sampling_write":
            w.send(w.ports["s"])
        else:
            w.receive(w.ports["s"], _roomy_label(w.parts[1], w.ports["s"].max_size))
    return w.text()


def _roomy_label(part, size):
    return next(l for l, s in part.sizes.items() if s >= size)


def campaign(seed):
    """Small fault-injection scenarios with the builtins spread among them."""
    rng = random.Random(f"campaign:{seed}")
    builtins = builtin_texts()
    every = CAMPAIGN_GENERATED // len(builtins)
    texts = []
    for i in range(CAMPAIGN_GENERATED):
        texts.append(_campaign_scenario(rng, f"campaign-{seed}-{i}"))
        if (i + 1) % every == 0 and (i + 1) // every <= len(builtins):
            texts.append(builtins[(i + 1) // every - 1])
    return texts


# -- step_mix -----------------------------------------------------------------


def step_mix(seed):
    """One scenario: 8 small partitions on a port ring, many small mixed steps."""
    rng = random.Random(f"step_mix:{seed}")
    w = ScenarioWriter(f"step_mix-{seed}", rng)
    regions = [("a", 64), ("b", 64), ("tx", 32), ("rx", 32), ("req", 8), ("resp", 16),
               ("scratch", 64)]
    n = 8
    for pid in range(1, n + 1):
        capacity = rng.randint(20, 60)
        processes = [
            {"id": 1, "priority": 2, "time_capacity": capacity,
             "period": capacity + rng.randint(50, 250)},
            {"id": 2, "priority": 1, "time_capacity": rng.randint(200, 2000)},
        ]
        # "scratch" is never written, so it always holds uninitialized bytes
        w.add_partition(Partition(pid, regions, processes=processes),
                        writable=["a", "b", "tx", "req", "resp"])
    for pid in range(1, n + 1):
        nxt = pid % n + 1
        w.add_port(Port(f"q{pid}", "queueing", pid, nxt, 32, 6))
        w.add_port(Port(f"s{pid}", "sampling", pid, nxt, 32, rng.randint(20, 100)))
    w.add_syscall("query", "sys_query")
    w.time = {"slowdown_factor": "3/2",
              "costs": {"base_step": 1, "asan_check": 1, "msan_check": 1, "ub_check": 1}}

    parts = list(w.parts.values())
    for part in parts:
        for label in part.writable:
            w.write(part, label, 0, part.sizes[label])

    ops = (["write"] * 15 + ["read"] * 10 + ["copy"] * 10 + ["arith"] * 10 + ["shift"] * 8
           + ["branch"] * 12 + ["syscall"] * 5 + ["send"] * 8 + ["receive"] * 9
           + ["sampling_write"] * 6 + ["sampling_read"] * 7)
    while len(w.steps) < STEP_MIX_STEPS:
        part = rng.choice(parts)
        if rng.random() < 0.001:
            rng.choice((w.overflow, w.uninit_branch, w.div_zero))(part)
            continue
        if rng.random() < 0.0002:
            w.use_after_reset(part)
            continue
        op = rng.choice(ops)
        upstream = (part.pid - 2) % n + 1
        if op == "write":
            w.write(part)
        elif op == "read":
            w.read(part)
        elif op == "copy":
            w.copy(part)
        elif op == "arith":
            w.arith(part)
        elif op == "shift":
            w.shift(part)
        elif op == "branch":
            w.branch(part)
        elif op == "syscall":
            w.syscall_step(part)
        elif op == "send":
            w.send(w.ports[f"q{part.pid}"], ["a", "b", "tx"])
        elif op == "receive":
            w.receive(w.ports[f"q{upstream}"], "rx")
        elif op == "sampling_write":
            w.send(w.ports[f"s{part.pid}"], ["a", "b", "tx"])
        else:
            w.receive(w.ports[f"s{upstream}"], "rx")
    return [w.text()]


# -- big_partition --------------------------------------------------------------


def big_partition(seed):
    """One scenario: two 1 MiB partitions, a few dozen steps over large spans."""
    rng = random.Random(f"big_partition:{seed}")
    w = ScenarioWriter(f"big_partition-{seed}", rng, max_span=256 * KIB)
    for pid in (1, 2):
        capacity = rng.randint(5, 15)
        w.add_partition(Partition(
            pid, [("lo", 256 * KIB), ("hi", 256 * KIB)], memory_size=MIB,
            processes=[{"id": 1, "priority": 1, "time_capacity": capacity,
                        "period": capacity + rng.randint(5, 20)}]))
    w.add_port(Port("q", "queueing", 1, 2, 64, 4))
    w.add_port(Port("s", "sampling", 2, 1, 64, 10))
    w.add_syscall("query", "sys_query")
    w.time = {"costs": {"base_step": 1, "asan_check": 1, "msan_check": 1}}
    parts = list(w.parts.values())
    # Span sizes are fixed; only their order and placement depend on the seed,
    # so every seed asks for the same amount of shadow work.
    fills = [4 * KIB * k for k in (1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 64, 64, 64)]
    copies = [4 * KIB * k for k in (4, 16, 32, 48, 64, 64)]
    rng.shuffle(fills)
    rng.shuffle(copies)

    def fill(part):
        label, n = rng.choice(("lo", "hi")), fills.pop()
        off = rng.randint(0, part.sizes[label] - n)
        w.write(part, label, off, n)
        return label, off, n

    for part in parts:
        fill(part)
    w.uninit_branch(parts[0])
    for round_ in range(3):
        for part in parts:
            fill(part)
            w.branch(part, fill(part))
            w.branch(part, w.copy(part, copies.pop()))
        if round_ < 2:
            w.use_after_reset(rng.choice(parts))
    # a few small steps, so every layer of the simulator runs on this workload too
    w.send(w.ports["q"])
    w.receive(w.ports["q"], "lo")
    w.send(w.ports["s"])
    w.receive(w.ports["s"], "hi")
    w.syscall_step(parts[0])
    w.arith(parts[1])
    w.shift(parts[1])
    return [w.text()]


GENERATORS = {"campaign": campaign, "step_mix": step_mix, "big_partition": big_partition}
