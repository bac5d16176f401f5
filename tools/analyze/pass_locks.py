"""Pass `locks`: the repo's lock-discipline contract (src/common/mutex.h).

Two rules over every class/struct defined under src/:

  raw-sync-member   members of type std::mutex / std::shared_mutex /
                    std::condition_variable (etc.) are banned outside
                    src/common/mutex.h. Raw standard types carry no
                    capability attributes under libstdc++, so clang's
                    -Wthread-safety cannot see through them; swope::Mutex
                    and swope::CondVar are the annotated equivalents.

  lock-discipline   in any class that owns a Mutex, every mutable data
                    member must be GUARDED_BY-annotated. Exempt: static
                    and const-qualified members (including `T* const`
                    handles), std::atomic members, the Mutex/CondVar
                    members themselves, and members whose type is itself
                    a mutex-owning (self-synchronized) class — directly
                    or via unique_ptr/shared_ptr. Escape hatch:
                    NOLINT(swope-lock-discipline) with a reason, for
                    state that is provably confined to one thread (e.g.
                    ctor/dtor-only).

The parser is textual (brace tracking over comment-stripped source), the
same level of rigor as tools/lint.py: it understands the repo's
clang-format-enforced style, not arbitrary C++. clang's -Wthread-safety
(promoted to -Werror in CI) is the ground-truth checker that the
GUARDED_BY annotations this pass demands are actually honoured.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from srcmodel import Finding

RULE = "lock-discipline"
RAW_RULE = "raw-sync-member"

# The one place allowed to spell the raw standard types.
MUTEX_WRAPPER_HEADER = "src/common/mutex.h"

_RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
)
_MUTEX_MEMBER_RE = re.compile(r"(?<!\w)(?:swope\s*::\s*)?Mutex(?!\w)")
_CONDVAR_MEMBER_RE = re.compile(r"(?<!\w)(?:swope\s*::\s*)?CondVar(?!\w)")
_GUARDED_RE = re.compile(r"\b(?:PT_)?GUARDED_BY\s*\(")
_ACCESS_LABEL_RE = re.compile(r"(?<!:)\b(?:public|private|protected)\s*:(?!:)")
_CLASS_RE = re.compile(r"\b(class|struct)\b")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")

_SKIP_DECL_KEYWORDS = (
    "using",
    "typedef",
    "friend",
    "enum",
    "class",
    "struct",
    "template",
    "static_assert",
    "explicit",
    "operator",
)


@dataclass
class ClassDef:
    name: str
    path: str
    line: int
    members: list = field(default_factory=list)  # [MemberDecl]

    @property
    def owns_mutex(self) -> bool:
        return any(m.is_mutex for m in self.members)


@dataclass
class MemberDecl:
    text: str  # whitespace-collapsed declaration, no trailing ';'
    name: str
    line: int
    is_mutex: bool = False
    is_raw_sync: bool = False
    guarded: bool = False


def run(tree: dict, config=None) -> list:
    del config  # layer config is not needed; signature matches the other passes
    classes = []
    for path in sorted(tree):
        if not path.startswith("src/"):
            continue
        classes.extend(parse_classes(tree[path]))

    self_sync = self_synchronized_types(classes)
    findings = []
    for cls in classes:
        findings.extend(_check_class(cls, self_sync, tree[cls.path]))
    return findings


def self_synchronized_types(classes) -> frozenset:
    """Class names that own a Mutex — their instances synchronize
    themselves, so embedding one in another locked class needs no
    GUARDED_BY. Computed from the same scan, so the set tracks the code."""
    return frozenset(c.name for c in classes if c.owns_mutex)


def _check_class(cls: ClassDef, self_sync, sf) -> list:
    findings = []
    raw_escapes = sf.nolint_lines(RAW_RULE)
    for m in cls.members:
        if m.is_raw_sync and cls.path != MUTEX_WRAPPER_HEADER:
            if m.line not in raw_escapes:
                findings.append(
                    Finding(
                        cls.path,
                        m.line,
                        RAW_RULE,
                        f"member '{m.name}' of class {cls.name} uses a raw "
                        "standard sync primitive; use swope::Mutex / "
                        "swope::CondVar (src/common/mutex.h) so clang's "
                        "thread-safety analysis can see the capability",
                    )
                )
    if not cls.owns_mutex:
        return findings

    escapes = sf.nolint_lines(RULE)
    for m in cls.members:
        if m.guarded or m.line in escapes:
            continue
        if _is_exempt(m, self_sync):
            continue
        findings.append(
            Finding(
                cls.path,
                m.line,
                RULE,
                f"class {cls.name} owns a Mutex but member '{m.name}' is "
                "not GUARDED_BY-annotated; annotate it, make it "
                "const/atomic, or NOLINT(swope-lock-discipline) with a "
                "reason if it is confined to one thread",
            )
        )
    return findings


def _is_exempt(m: MemberDecl, self_sync) -> bool:
    tokens = set(_NAME_RE.findall(m.text))
    if "static" in tokens or "const" in tokens or "constexpr" in tokens:
        return True
    if m.is_mutex or _CONDVAR_MEMBER_RE.search(m.text):
        return True
    if re.search(r"\bstd\s*::\s*atomic\b|\batomic_flag\b", m.text):
        return True
    type_names = set(_NAME_RE.findall(m.text[: m.text.rfind(m.name)]))
    return bool(type_names & self_sync)


def parse_classes(sf) -> list:
    """All class/struct definitions in `sf`, with their data members.

    Textual parser: tracks braces on the comment-stripped source, skips
    forward declarations and `template <class T>` parameters, recurses
    into nested classes (whose bodies are excluded from the outer
    class's member list).
    """
    text = sf.stripped
    classes = []
    _scan_region(sf, text, 0, len(text), classes)
    return classes


def _scan_region(sf, text, begin, end, out) -> None:
    i = begin
    while i < end:
        m = _CLASS_RE.search(text, i, end)
        if m is None:
            return
        # `template <class T>` / `<class ...>`: preceded by '<' or ','.
        j = m.start() - 1
        while j >= 0 and text[j] in " \t\n":
            j -= 1
        if j >= 0 and text[j] in "<,":
            i = m.end()
            continue
        # `enum class`: preceded by 'enum'.
        if text[max(0, m.start() - 8): m.start()].strip().endswith("enum"):
            i = m.end()
            continue
        header_end, body_start = _find_body(text, m.end(), end)
        if body_start is None:
            i = header_end
            continue
        name = _class_name(text[m.end(): body_start])
        body_end = _match_brace(text, body_start, end)
        if name is not None:
            cls = ClassDef(
                name=name,
                path=sf.path,
                line=text.count("\n", 0, m.start()) + 1,
            )
            cls.members = _parse_members(text, body_start + 1, body_end)
            out.append(cls)
        _scan_region(sf, text, body_start + 1, body_end, out)
        i = body_end + 1


def _find_body(text, i, end):
    """From just past 'class'/'struct', finds the opening '{' of the
    definition, or stops at ';' (forward declaration) / '(' (e.g. a
    function-local use). Returns (resume_index, body_start|None)."""
    depth = 0  # angle/paren depth inside the base-clause (templates)
    while i < end:
        c = text[i]
        if c == "{" and depth == 0:
            return i, i
        if c == ";" and depth == 0:
            return i + 1, None
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            # `class X = Y` in template args slipped through; bail out.
            return i + 1, None
        i += 1
    return end, None


def _class_name(header: str):
    # Strip attributes ([[nodiscard]]), annotation macros
    # (CAPABILITY("mutex"), SCOPED_CAPABILITY — all-caps by convention),
    # and 'final'; take the first identifier, drop anything after ':'
    # (base clause).
    header = re.sub(r"\[\[[^\]]*\]\]", " ", header)
    header = re.sub(r"\b[A-Z][A-Z0-9_]+\s*\([^)]*\)", " ", header)
    header = header.split(":")[0]
    names = [
        t
        for t in _NAME_RE.findall(header)
        if t not in ("final", "alignas") and not re.fullmatch(r"[A-Z][A-Z0-9_]+", t)
    ]
    return names[0] if names else None


def _match_brace(text, open_idx, end):
    depth = 0
    for i in range(open_idx, end):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return end - 1


def _parse_members(text, begin, end) -> list:
    """Data-member declarations at class-body depth.

    Segments the body at top-level ';', skipping over brace blocks
    (function bodies, nested classes, brace initializers). A brace block
    immediately followed by ';' belongs to the preceding declaration
    (brace-init or nested type); one followed by anything else ends a
    function definition, whose segment is dropped.
    """
    body = text[begin:end]
    # Same-length blanking keeps offsets into `body` valid in `text`, so
    # member line numbers (and their NOLINT escapes) stay exact.
    body = _ACCESS_LABEL_RE.sub(lambda m: " " * len(m.group(0)), body)
    members = []
    seg_start = 0
    i = 0
    n = len(body)
    depth = 0  # parens/angles within a declaration (GUARDED_BY, templates)
    while i < n:
        c = body[i]
        if c == "{":
            close = _match_brace(body, i, n)
            k = close + 1
            while k < n and body[k] in " \t\n":
                k += 1
            if k < n and body[k] == ";":
                decl = body[seg_start:i]
                _append_member(members, decl, text, begin + seg_start)
                i = k + 1
                seg_start = i
            else:
                i = close + 1
                seg_start = i
            depth = 0
            continue
        if c in "(<":
            depth += 1
        elif c in ")>":
            depth = max(0, depth - 1)
        elif c == ";" and depth == 0:
            decl = body[seg_start:i]
            _append_member(members, decl, text, begin + seg_start)
            seg_start = i + 1
        i += 1
    return members


def _append_member(members, decl, text, abs_start) -> None:
    collapsed = " ".join(decl.split())
    if not collapsed:
        return
    first = _NAME_RE.match(collapsed)
    if first is not None and first.group(0) in _SKIP_DECL_KEYWORDS:
        return
    name = _member_name(collapsed)
    if name is None:
        return
    # Line of the declaration's last line (where the name sits).
    line = text.count("\n", 0, abs_start + len(decl)) + 1
    members.append(
        MemberDecl(
            text=collapsed,
            name=name,
            line=line,
            is_mutex=bool(_MUTEX_MEMBER_RE.search(collapsed))
            and "MutexLock" not in collapsed,
            is_raw_sync=bool(_RAW_SYNC_RE.search(collapsed)),
            guarded=bool(_GUARDED_RE.search(collapsed)),
        )
    )


def _member_name(decl: str):
    """The declared member name, or None for things that are not data
    members (function declarations, deleted/defaulted functions, ...)."""
    # Drop a trailing initializer.
    if re.search(r"\boperator\b", decl):
        return None
    core = re.split(r"\s*=\s*", decl, maxsplit=1)[0].strip()
    if not core or core.endswith(")"):
        # `= default` / `= delete` / `= 0` leave a ')'-terminated core:
        # a function. Plain ')' endings are function declarations too
        # (GUARDED_BY never terminates a data member: the attribute
        # precedes the initializer or the ';').
        return None
    # Strip trailing attributes: GUARDED_BY(...), REQUIRES(...), etc.
    attr = re.search(
        r"\b(?:PT_)?(?:GUARDED_BY|ACQUIRED_(?:AFTER|BEFORE)|REQUIRES|"
        r"EXCLUDES|RETURN_CAPABILITY)\s*\(",
        core,
    )
    if attr is not None:
        core = core[: attr.start()].strip()
    # Array members: drop the extent.
    core = re.sub(r"\[[^\]]*\]\s*$", "", core).strip()
    if core.endswith(")"):
        return None
    names = _NAME_RE.findall(core)
    if not names:
        return None
    name = names[-1]
    if name in ("override", "final", "noexcept", "delete", "default", "0"):
        return None
    # A lone identifier is a label or stray token, not `Type name`.
    if len(names) < 2 and not re.search(r"[*&>]\s*" + re.escape(name) + r"$", core):
        return None
    return name
