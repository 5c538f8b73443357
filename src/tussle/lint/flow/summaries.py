"""Per-file summary extraction for the flow analyzer.

The engine hands each parsed module's AST to :func:`extract_summary`,
which digests it into a **summary**: plain dicts holding everything the
whole-program analyses need — functions, resolved call sites, trace
expressions for seed arguments, local mutation effects, RNG bindings.
The link phase (:mod:`tussle.lint.flow.project` and the rule modules)
operates on summaries only and never touches an AST.

Summary schema::

    ModuleSummary = {
      "module":   str,          # canonical dotted name ("tussle.econ.market")
      "path":     str,
      "functions": [FunctionSummary, ...],   # defs, methods, "<module>"
      "classes":  {name: {"bases": [TargetStr], "methods": [name]}},
      "mutable_globals": [name, ...],
    }

    FunctionSummary = {
      "qual": str,              # "tussle.econ.market.Market.step"
      "name": str, "line": int, "cls": str | None,
      "params": [name, ...],    # posonly + args + kwonly, in order
      "defaults": {param: TraceExpr},
      "annotations": {param: str},    # resolved dotted class of annotation
      "calls": [CallSite, ...],
      "bindings": {local: TraceExpr}, # last simple assignment per local
      "returns": [TraceExpr, ...],
      "rng_ctors": [{"line", "col", "ctor", "seed": TraceExpr | None}],
      "rng_defaults": [{"line", "col", "ctor"}],       # F204 precursors
      "mutations": {"params": [name], "globals": [name]},
    }

    CallSite = {"t": Target, "line": int, "col": int,
                "args": [TraceExpr], "kw": {name: TraceExpr}, "star": bool}

Call targets (``Target``) and trace expressions (``TraceExpr``) are
small tagged dicts; see :func:`encode_target_str` and ``_encode_expr``
for the vocabulary.  Both are deliberately *bounded*: expressions nest
at most ``_MAX_EXPR_DEPTH`` levels, everything deeper collapses to
``{"k": "opaque"}`` — the analyses treat opaque conservatively.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from ..context import (absolute_module, dotted_name, lazy_entries,
                       module_dotted_name)

__all__ = [
    "RNG_CTORS",
    "SEED_DERIVATION_FNS",
    "extract_summary",
    "import_base",
    "is_seedlike",
]

#: Canonical names of RNG constructors (post import-resolution).
RNG_CTORS = {
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator",
}

#: Project functions sanctioned as substream derivations: their return
#: value counts as a traced seed wherever it flows.
SEED_DERIVATION_FNS = {"derive_seed"}

#: RNG methods that yield an independent-substream seed.
_SUBSTREAM_METHODS = {"getrandbits", "randint", "randrange"}

#: Identifier fragments that mark a name/attribute as seed-carrying.
_SEED_FRAGMENT = "seed"

_MAX_EXPR_DEPTH = 5

_BUILTIN_NAMES = frozenset(dir(builtins))


def is_seedlike(identifier: str) -> bool:
    """Does this identifier carry a seed by naming convention?"""
    return _SEED_FRAGMENT in identifier.lower()


def import_base(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute dotted module a ``from ... import`` in ``module`` reads.

    ``from ..errors import X`` in ``tussle.econ.market`` reads
    ``tussle.errors``; in a package ``__init__`` one leading dot already
    names the package itself.
    """
    return absolute_module("." * node.level + (node.module or ""), module,
                           is_package)


def _resolve_import_table(tree: ast.Module, module: str,
                          is_package: bool) -> Dict[str, str]:
    """Local name -> canonical dotted path, resolving *relative* imports too.

    Unlike the engine-level table this maps ``from ..errors import X`` in
    ``tussle.econ.market`` to ``tussle.errors.X`` so the call graph can
    link project symbols across packages.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = import_base(node, module, is_package)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


class _FunctionExtractor:
    """Walk one function body (nested defs inlined) into a FunctionSummary."""

    def __init__(self, owner: "_ModuleExtractor", node: Optional[ast.AST],
                 qual: str, name: str, cls: Optional[str]):
        self.owner = owner
        self.qual = qual
        self.name = name
        self.cls = cls
        self.params: List[str] = []
        self.vararg: Optional[str] = None
        self.kwarg: Optional[str] = None
        self.defaults: Dict[str, Any] = {}
        self.annotations: Dict[str, str] = {}
        self.calls: List[Dict[str, Any]] = []
        self.bindings: Dict[str, Any] = {}
        self.returns: List[Any] = []
        self.rng_ctors: List[Dict[str, Any]] = []
        self.rng_defaults: List[Dict[str, Any]] = []
        self.mut_params: Set[str] = set()
        self.mut_globals: Set[str] = set()
        self.locals: Set[str] = set()
        self.local_funcs: Set[str] = set()
        self.local_types: Dict[str, str] = {}
        self.rng_names: Set[str] = set()
        self.globals_decl: Set[str] = set()
        self.line = getattr(node, "lineno", 0) if node is not None else 0

    # -- signature -----------------------------------------------------
    def read_signature(self, node: ast.FunctionDef) -> None:
        args = node.args
        ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        self.params = [a.arg for a in ordered]
        self.vararg = args.vararg.arg if args.vararg else None
        self.kwarg = args.kwarg.arg if args.kwarg else None
        for arg in ordered:
            if arg.annotation is not None:
                resolved = self._resolve_annotation(arg.annotation)
                if resolved is not None:
                    self.annotations[arg.arg] = resolved
            if "rng" in arg.arg.lower():
                self.rng_names.add(arg.arg)
        # Map defaults back to their parameters (defaults are right-aligned).
        positional = list(args.posonlyargs) + list(args.args)
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            self._read_default(arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._read_default(arg.arg, default)

    def _read_default(self, param: str, default: ast.expr) -> None:
        self.defaults[param] = self.encode_expr(default)
        if isinstance(default, ast.Call):
            target = self.owner.resolve_target_prefix(default.func)
            if target in RNG_CTORS:
                self.rng_defaults.append({
                    "line": default.lineno, "col": default.col_offset + 1,
                    "ctor": target,
                })

    def _resolve_annotation(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[X] / List[X] heads
            return None
        name = dotted_name(node)
        if name is None:
            return None
        return self.owner.resolve_symbol(name)

    # -- name classification -------------------------------------------
    def collect_locals(self, body: List[ast.stmt]) -> None:
        """Pre-pass: every name this function binds (nested defs inlined)."""
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.locals.add(node.name)
                self.local_funcs.add(node.name)
                for arg in (list(node.args.posonlyargs) + list(node.args.args)
                            + list(node.args.kwonlyargs)):
                    self.locals.add(arg.arg)
                for va in (node.args.vararg, node.args.kwarg):
                    if va is not None:
                        self.locals.add(va.arg)
            elif isinstance(node, ast.Lambda):
                for arg in (list(node.args.posonlyargs) + list(node.args.args)
                            + list(node.args.kwonlyargs)):
                    self.locals.add(arg.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        self.locals.add(sub.id)
            elif isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.locals.add(node.name)
        self.locals -= self.globals_decl

    def classify_name(self, name: str) -> str:
        """'param' | 'local' | 'global' | 'import' | 'builtin' | 'other'"""
        if name in self.params or name in (self.vararg, self.kwarg):
            return "param"
        if name in self.locals:
            return "local"
        if name in self.globals_decl or name in self.owner.top_names:
            return "global"
        if name in self.owner.imports:
            return "import"
        if name in _BUILTIN_NAMES:
            return "builtin"
        return "other"

    # -- trace expressions ---------------------------------------------
    def encode_expr(self, node: ast.expr, depth: int = 0) -> Dict[str, Any]:
        if depth > _MAX_EXPR_DEPTH:
            return {"k": "opaque"}
        if isinstance(node, ast.Constant):
            value = node.value
            if not isinstance(value, (int, float, str, bool, type(None))):
                value = repr(value)
            return {"k": "const", "v": value}
        if isinstance(node, ast.Name):
            return self._encode_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._encode_attribute(node)
        if isinstance(node, ast.BinOp):
            return {"k": "binop", "parts": [
                self.encode_expr(node.left, depth + 1),
                self.encode_expr(node.right, depth + 1)]}
        if isinstance(node, ast.UnaryOp):
            return self.encode_expr(node.operand, depth + 1)
        if isinstance(node, ast.IfExp):
            return {"k": "choice", "parts": [
                self.encode_expr(node.body, depth + 1),
                self.encode_expr(node.orelse, depth + 1)]}
        if isinstance(node, ast.BoolOp):
            return {"k": "choice", "parts": [
                self.encode_expr(v, depth + 1) for v in node.values]}
        if isinstance(node, ast.Call):
            return {"k": "call",
                    "t": self.encode_target(node.func),
                    "args": [self.encode_expr(a, depth + 1)
                             for a in node.args
                             if not isinstance(a, ast.Starred)][:6]}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {"k": "container", "items": [
                self.encode_expr(e, depth + 1) for e in node.elts[:8]]}
        if isinstance(node, ast.Dict):
            return {"k": "container", "items": [
                self.encode_expr(v, depth + 1)
                for v in node.values[:8] if v is not None]}
        if isinstance(node, ast.Starred):
            return self.encode_expr(node.value, depth + 1)
        if isinstance(node, ast.Lambda):
            return {"k": "lambda"}
        return {"k": "opaque"}

    def _encode_name(self, name: str) -> Dict[str, Any]:
        kind = self.classify_name(name)
        if name in self.rng_names:
            return {"k": "rng", "name": name}
        if kind == "param":
            if is_seedlike(name):
                return {"k": "seed", "name": name}
            return {"k": "param", "name": name}
        if is_seedlike(name):
            return {"k": "seed", "name": name}
        if kind == "local":
            if name in self.local_funcs:
                return {"k": "localfunc", "name": name}
            return {"k": "local", "name": name}
        if kind == "global":
            resolved = self.owner.resolve_symbol(name)
            if resolved is not None and self.owner.is_function_name(name):
                return {"k": "funcref", "q": resolved}
            return {"k": "globalname", "name": name}
        if kind == "import":
            resolved = self.owner.resolve_symbol(name)
            if resolved is not None:
                if resolved.startswith("tussle."):
                    return {"k": "funcref", "q": resolved}
                return {"k": "ext", "q": resolved}
        return {"k": "name", "name": name}

    def _encode_attribute(self, node: ast.Attribute) -> Dict[str, Any]:
        dotted = dotted_name(node)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            attrs = rest.split(".") if rest else []
            if "rng" in node.attr.lower():
                return {"k": "rng", "name": dotted}
            if is_seedlike(node.attr):
                return {"k": "seed", "name": dotted}
            kind = self.classify_name(head)
            if kind == "param" and len(attrs) == 1:
                return {"k": "param_attr", "name": head, "attr": node.attr}
            if kind == "import":
                resolved = self.owner.resolve_symbol(dotted)
                if resolved is not None:
                    return {"k": "ext", "q": resolved}
        return {"k": "opaque"}

    # -- call targets --------------------------------------------------
    def encode_target(self, func: ast.expr) -> Dict[str, Any]:
        if isinstance(func, ast.Name):
            name = func.id
            kind = self.classify_name(name)
            if kind == "local":
                if name in self.local_funcs:
                    return {"t": "localfn", "n": name}
                local_type = self.local_types.get(name)
                if local_type is not None:
                    return {"t": "proj", "q": local_type}
                return {"t": "dyn"}
            if kind in ("global", "import"):
                resolved = self.owner.resolve_symbol(name)
                if resolved is not None:
                    if resolved.startswith("tussle."):
                        return {"t": "proj", "q": resolved}
                    return {"t": "ext", "q": resolved}
            if kind == "builtin":
                return {"t": "builtin", "n": name}
            if kind == "param":
                return {"t": "meth", "recv": f"param:{name}",
                        "attr": "__call__",
                        "ann": self.annotations.get(name)}
            return {"t": "dyn"}
        if isinstance(func, ast.Attribute):
            return self._encode_attr_target(func)
        return {"t": "dyn"}

    def _encode_attr_target(self, func: ast.Attribute) -> Dict[str, Any]:
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            head = base.id
            if head == "self" and self.cls is not None:
                return {"t": "selfm", "cls": self.cls, "attr": attr}
            kind = self.classify_name(head)
            if kind in ("import", "global"):
                dotted = dotted_name(func)
                if dotted is not None:
                    resolved = self.owner.resolve_symbol(dotted)
                    if resolved is not None:
                        if resolved.startswith("tussle."):
                            return {"t": "proj", "q": resolved}
                        return {"t": "ext", "q": resolved}
                if kind == "global":
                    return {"t": "meth", "recv": f"global:{head}",
                            "attr": attr, "ann": None}
            if kind == "param":
                return {"t": "meth", "recv": f"param:{head}", "attr": attr,
                        "ann": self.annotations.get(head)}
            if kind == "local":
                return {"t": "meth", "recv": f"local:{head}", "attr": attr,
                        "ann": self.local_types.get(head)}
            return {"t": "meth", "recv": "other", "attr": attr, "ann": None}
        # Method on an attribute chain / call result / subscript.
        dotted = dotted_name(func)
        if dotted is not None:
            resolved = self.owner.resolve_symbol(dotted)
            if resolved is not None and not resolved.startswith("tussle."):
                return {"t": "ext", "q": resolved}
            head, _, _rest = dotted.partition(".")
            if head == "self" or self.classify_name(head) == "param":
                recv = "selfattr" if head == "self" else f"paramattr:{head}"
                return {"t": "meth", "recv": recv, "attr": attr, "ann": None}
        if isinstance(base, ast.Call):
            return {"t": "meth", "recv": "local:<temp>", "attr": attr,
                    "ann": None}
        return {"t": "meth", "recv": "other", "attr": attr, "ann": None}

    # -- statement walk ------------------------------------------------
    def walk_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: inline its body (params already counted as locals).
            for expr in node.decorator_list + list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]:
                self._walk_expr(expr)
            self.walk_body(node.body)
            return
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                self._walk_expr(decorator)
            self.walk_body(node.body)
            return
        if isinstance(node, ast.Assign):
            self._record_assignment(node.targets, node.value)
            self._walk_expr(node.value)
            for target in node.targets:
                self._record_store_target(target)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_assignment([node.target], node.value)
                self._walk_expr(node.value)
            self._record_store_target(node.target)
            return
        if isinstance(node, ast.AugAssign):
            self._walk_expr(node.value)
            self._record_store_target(node.target)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.returns.append(self.encode_expr(node.value))
                self._walk_expr(node.value)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_store_target(target)
            return
        # Generic statement: walk child statements and expressions.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child)
            elif isinstance(child, ast.expr):
                self._walk_expr(child)
            elif isinstance(child, (ast.withitem, ast.ExceptHandler,
                                    ast.comprehension)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._walk_stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._walk_expr(sub)

    def _record_assignment(self, targets: List[ast.expr],
                           value: ast.expr) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if self.classify_name(name) != "local":
            return
        self.bindings[name] = self.encode_expr(value)
        if isinstance(value, ast.Call):
            target = self.owner.resolve_target_prefix(value.func)
            if target in RNG_CTORS:
                self.rng_names.add(name)
            elif target is not None and target.startswith("tussle."):
                self.local_types[name] = target
        if isinstance(value, ast.Name) and value.id in self.rng_names:
            self.rng_names.add(name)

    def _record_store_target(self, target: ast.expr) -> None:
        """Attribute/subscript stores mutate their receiver."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store_target(element)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl or (
                    target.id in self.owner.top_names
                    and target.id not in self.locals
                    and target.id not in self.params):
                self.mut_globals.add(target.id)
            return
        head = target
        while isinstance(head, (ast.Attribute, ast.Subscript)):
            head = head.value
        if not isinstance(head, ast.Name):
            return
        kind = self.classify_name(head.id)
        if kind == "param":
            self.mut_params.add(head.id)
        elif kind == "global":
            self.mut_globals.add(head.id)

    def _walk_expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub)
            elif isinstance(sub, ast.Lambda):
                pass  # bodies walked via ast.walk already

    def _record_call(self, node: ast.Call) -> None:
        target = self.encode_target(node.func)
        site: Dict[str, Any] = {
            "t": target,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "args": [self.encode_expr(a) for a in node.args
                     if not isinstance(a, ast.Starred)][:8],
            "kw": {kw.arg: self.encode_expr(kw.value)
                   for kw in node.keywords if kw.arg is not None},
        }
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(kw.arg is None for kw in node.keywords):
            site["star"] = True
        self.calls.append(site)
        # RNG construction site: record the seed trace expression.
        resolved = self.owner.resolve_target_prefix(node.func)
        if resolved in RNG_CTORS:
            seed_expr: Optional[Dict[str, Any]] = None
            if node.args:
                seed_expr = self.encode_expr(node.args[0])
            else:
                for kw in node.keywords:
                    if kw.arg in ("seed", "x"):
                        seed_expr = self.encode_expr(kw.value)
                        break
            self.rng_ctors.append({
                "line": node.lineno, "col": node.col_offset + 1,
                "ctor": resolved, "seed": seed_expr,
            })

    # -- output --------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "qual": self.qual,
            "name": self.name,
            "line": self.line,
            "cls": self.cls,
            "params": self.params,
            "defaults": self.defaults,
            "annotations": self.annotations,
            "calls": self.calls,
            "bindings": self.bindings,
            "returns": self.returns[:8],
            "rng_ctors": self.rng_ctors,
            "rng_defaults": self.rng_defaults,
            "mutations": {"params": sorted(self.mut_params),
                          "globals": sorted(self.mut_globals)},
        }


class _ModuleExtractor:
    """Shared per-module resolution state for function extraction."""

    def __init__(self, module: str, tree: ast.Module, is_package: bool):
        self.module = module
        self.imports = _resolve_import_table(tree, module, is_package)
        self.top_names: Set[str] = set()
        self.function_names: Set[str] = set()
        self.class_names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_names.add(node.name)
                self.function_names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.top_names.add(node.name)
                self.class_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            self.top_names.add(sub.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and \
                    isinstance(node.target, ast.Name):
                self.top_names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                pass  # covered by the import table

    def resolve_symbol(self, dotted: str) -> Optional[str]:
        """Canonical dotted path for a module-scope name or alias chain."""
        head, _, rest = dotted.partition(".")
        if head in self.class_names or head in self.function_names:
            base = f"{self.module}.{head}"
            return f"{base}.{rest}" if rest else base
        if head in self.imports:
            canonical = self.imports[head]
            return f"{canonical}.{rest}" if rest else canonical
        if head in self.top_names:
            base = f"{self.module}.{head}"
            return f"{base}.{rest}" if rest else base
        return None

    def is_function_name(self, name: str) -> bool:
        return name in self.function_names

    def resolve_target_prefix(self, func: ast.expr) -> Optional[str]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        return self.resolve_symbol(dotted)


def _extract_function(owner: _ModuleExtractor, node: ast.FunctionDef,
                      cls: Optional[str]) -> Dict[str, Any]:
    qual = (f"{owner.module}.{cls}.{node.name}" if cls
            else f"{owner.module}.{node.name}")
    fx = _FunctionExtractor(owner, node, qual, node.name, cls)
    fx.read_signature(node)
    fx.collect_locals(node.body)
    fx.walk_body(node.body)
    return fx.summary()


_MUTABLE_CTOR_NAMES = {"list", "dict", "set", "defaultdict", "OrderedDict",
                       "Counter", "deque"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CTOR_NAMES
    return False


def extract_summary(path: Path, tree: ast.Module) -> Dict[str, Any]:
    """Digest one parsed module into its flow summary."""
    module = module_dotted_name(path)
    owner = _ModuleExtractor(module, tree, is_package=path.stem == "__init__")

    functions: List[Dict[str, Any]] = []
    classes: Dict[str, Dict[str, Any]] = {}
    mutable_globals: List[str] = []
    module_level: List[ast.stmt] = []
    decorators: List[ast.expr] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_extract_function(owner, node, None))
            decorators.extend(node.decorator_list)
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                resolved = owner.resolve_target_prefix(base)
                bases.append(resolved if resolved is not None
                             else (dotted_name(base) or "?"))
            decorators.extend(node.decorator_list)
            methods = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(_extract_function(owner, item, node.name))
                    methods.append(item.name)
                    decorators.extend(item.decorator_list)
                else:
                    module_level.append(item)
            classes[node.name] = {"bases": bases, "methods": methods,
                                  "line": node.lineno}
        else:
            module_level.append(node)
            if isinstance(node, ast.Assign) and _is_mutable_literal(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mutable_globals.append(target.id)

    # Everything evaluated at import time (module statements, class-body
    # statements, decorators) forms a synthetic "<module>" function so
    # RNG construction and calls there participate in analysis.
    mx = _FunctionExtractor(owner, None, f"{module}.<module>", "<module>", None)
    mx.line = 1
    mx.locals = set()  # module scope: names resolve via owner.top_names
    mx.walk_body(module_level)
    for decorator in decorators:
        mx._walk_expr(decorator)
    functions.append(mx.summary())

    # A registry table's functions run whenever the registry is looked up.
    registry = ([f"{entry.module}.{entry.name}"
                 for entry in lazy_entries(tree, module) if entry.registry]
                if path.stem == "__init__" else [])
    return {
        "module": module,
        "path": str(path),
        "functions": functions,
        "classes": classes,
        "mutable_globals": sorted(set(mutable_globals)),
        "registry": registry,
    }
