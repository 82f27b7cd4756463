"""Deterministic partition simulator with built-in sanitizer runtimes.

The package models an avionics-style partitioned system: statically
allocated per-partition memory guarded by address-validity shadow maps,
byte-level initialization tracking with origins, checked arithmetic
primitives, priority-preemptive process dispatch with deadline accounting
in an instrumented-time model (a major frame of partition windows is
validated at load time but not enforced at run time), sampling/queueing
ports, a contract-annotation language for syscall boundaries, and a
fault-injection harness that replays JSON scenarios and reports findings
deterministically.
"""

from .asan_shadow import (
    LEFT_REDZONE,
    MANUAL_BLACKLIST,
    PARTITION_RESET,
    POISON_FLOOR,
    POISON_KINDS,
    RIGHT_REDZONE,
    VALID_GRANULARITIES,
    WILD_ADDRESS,
    ShadowMap,
)
from .errors import (
    ConfigError,
    EncodingError,
    ParseError,
    PartsanError,
)
from .guest_memory import (
    NULL_GUARD,
    PartitionMemory,
    Region,
)
from .harness import (
    Event,
    RunReport,
    Simulator,
    match_expected,
    render_report,
    run_scenario,
)
from .msan_shadow import (
    InitShadow,
    copy_propagate,
    unpoison_padding,
)
from .ports import (
    Message,
    QueueingPort,
    SamplingPort,
)
from .scenario import (
    Scenario,
    builtin_names,
    load_builtin,
    load_scenario,
    load_scenario_file,
)
from .sched import (
    INVALID_MODE,
    MAIN_PROCESS_ID,
    DeadlineMiss,
    Process,
    ProcessTable,
    TimeModel,
    check_deadline,
    current_window,
    get_my_id,
)
from .syscall_annotations import (
    SyscallSpec,
    enforce_post,
    enforce_pre,
    parse_template,
    render_template,
    resolve_sizes,
)
from .ub_checks import (
    INT_SPECS,
    IntSpec,
    check_align,
    check_bool,
    check_enum,
    check_nonnull,
    checked_arith,
    checked_div,
    checked_shift,
    checked_trunc,
)
from .violations import (
    Violation,
    ViolationError,
)

__version__ = "0.1.0"
