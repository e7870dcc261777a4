"""Lower pycparser ASTs to the analysis IR (§3.1, §4.4).

The front end converts every assignment into *points-to form*: rvalue
variable references become contents-of-location terms, struct member and
array accesses become ``(offset, stride)`` decorations on location
expressions, and pointer arithmetic becomes :class:`AdjustTerm` — simple
increments fold into strides, arbitrary arithmetic blurs to stride 1.

Control flow lowers to one node per statement: assignments, calls, meets at
joins, and plain branch nodes.  Short-circuit operators and ``?:`` build
real diamonds (their side effects must stay on the right paths — otherwise a
strong update in one arm could unsoundly kill the other arm's effect), and
``switch``/``goto``/``break``/``continue`` resolve to explicit edges.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from pycparser import c_ast

from ..ir.expr import (
    AddressTerm,
    AdjustTerm,
    ContentsTerm,
    DerefLoc,
    GlobalSymbol,
    LocalSymbol,
    LocExpr,
    ProcSymbol,
    StringSymbol,
    Symbol,
    SymbolLoc,
    UNKNOWN,
    ValueExpr,
    address_of,
    contents_of,
    unknown_value,
)
from ..ir.nodes import AssignNode, BranchNode, CallNode, MeetNode, Node
from ..ir.program import GlobalInit, Procedure, Program
from . import ctypes_model as tm
from .typebuild import ConstEvalError, FrontendError, TypeBuilder

__all__ = ["Lowerer", "lower_translation_unit", "FrontendError"]


def _unescape_c_string(text: str) -> str:
    """Decode a C string literal's escapes (approximately)."""
    body = text
    if body.startswith("L"):
        body = body[1:]
    body = body[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            n = body[i + 1]
            simple = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
                      '"': '"', "'": "'", "a": "\a", "b": "\b", "f": "\f", "v": "\v"}
            if n in simple:
                out.append(simple[n])
                i += 2
                continue
            if n in "xX":
                j = i + 2
                while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                    j += 1
                out.append(chr(int(body[i + 2 : j] or "0", 16) & 0xFF))
                i = j
                continue
            if n.isdigit():
                j = i + 1
                while j < len(body) and body[j].isdigit() and j < i + 4:
                    j += 1
                out.append(chr(int(body[i + 1 : j], 8) & 0xFF))
                i = j
                continue
        out.append(c)
        i += 1
    return "".join(out)


class _RValue:
    """A lowered rvalue: its pointer-relevant value and its C type."""

    __slots__ = ("value", "ctype")

    def __init__(self, value: ValueExpr, ctype: tm.CType) -> None:
        self.value = value
        self.ctype = ctype


class _LValue:
    """A lowered lvalue: the locations it names and its C type."""

    __slots__ = ("loc", "ctype")

    def __init__(self, loc: LocExpr, ctype: tm.CType) -> None:
        self.loc = loc
        self.ctype = ctype


def _loc_with_offset(loc: LocExpr, delta: int) -> LocExpr:
    if isinstance(loc, SymbolLoc):
        return SymbolLoc(loc.symbol, loc.offset + delta, loc.stride)
    assert isinstance(loc, DerefLoc)
    return DerefLoc(loc.pointer, loc.offset + delta, loc.stride, loc.blur)


def _loc_with_stride(loc: LocExpr, stride: int) -> LocExpr:
    from math import gcd

    if isinstance(loc, SymbolLoc):
        return SymbolLoc(loc.symbol, loc.offset, gcd(loc.stride, stride))
    assert isinstance(loc, DerefLoc)
    return DerefLoc(loc.pointer, loc.offset, gcd(loc.stride, stride), loc.blur)


class Lowerer:
    """Lowers one or more translation units into a :class:`Program`."""

    def __init__(self, program_name: str = "<program>") -> None:
        self.types = TypeBuilder()
        self.program = Program(program_name)
        # file-scope symbol table: name -> (Symbol, CType)
        self.file_scope: dict[str, tuple[Symbol, tm.CType]] = {}
        self._static_counter = itertools.count()
        #: tolerant-mode hook: ``fault_handler(proc_name, exc)`` is called
        #: (and the partial procedure discarded) instead of propagating a
        #: :class:`FrontendError` out of one function definition.  ``None``
        #: (the default) keeps the historical raise-through behavior.
        self.fault_handler = None

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def lower(self, ast: c_ast.FileAST) -> Program:
        # pre-pass: register all function definitions so forward calls and
        # function pointers to later-defined functions resolve
        for ext in ast.ext:
            if isinstance(ext, c_ast.FuncDef):
                try:
                    name = ext.decl.name
                    ftype = self.types.type_of(ext.decl.type)
                    assert isinstance(ftype, tm.CFunction)
                    self.file_scope[name] = (ProcSymbol(name), ftype)
                except FrontendError:
                    if self.fault_handler is None:
                        raise
                    # leave unregistered; the definition pass below hits
                    # the same error and records the quarantine there
        for ext in ast.ext:
            if isinstance(ext, c_ast.Typedef):
                self.types.add_typedef(ext.name, ext.type)
            elif isinstance(ext, c_ast.Decl):
                self._lower_file_decl(ext)
            elif isinstance(ext, c_ast.FuncDef):
                if self.fault_handler is None:
                    self._lower_funcdef(ext)
                else:
                    name = getattr(ext.decl, "name", None) or "?"
                    try:
                        self._lower_funcdef(ext)
                    except FrontendError as exc:
                        # quarantine just this procedure: drop the partial
                        # (under-approximating, unsound-to-apply) lowering
                        # and let the engine havoc its call sites
                        self.program.procedures.pop(name, None)
                        self.fault_handler(name, exc)
            elif isinstance(ext, (c_ast.Pragma,)):
                pass
            else:
                raise FrontendError(
                    f"unsupported top-level {type(ext).__name__}", ext.coord
                )
        return self.program

    def _lower_file_decl(self, decl: c_ast.Decl) -> None:
        ctype = self.types.type_of(decl.type)
        if isinstance(ctype, tm.CFunction):
            # function declaration (prototype); remember its type
            if decl.name and decl.name not in self.file_scope:
                self.file_scope[decl.name] = (ProcSymbol(decl.name), ctype)
            return
        if decl.name is None:
            return  # bare struct/union/enum declaration
        storage = decl.storage or []
        if "typedef" in storage:
            self.types.add_typedef(decl.name, decl.type)
            return
        existing = self.file_scope.get(decl.name)
        if existing is not None and isinstance(existing[0], GlobalSymbol):
            symbol = existing[0]
            # complete the type (e.g. extern then defining declaration)
            self.file_scope[decl.name] = (symbol, ctype)
        else:
            symbol = GlobalSymbol(
                decl.name,
                size=ctype.size if ctype.is_complete else None,
                is_static="static" in storage,
            )
            self.file_scope[decl.name] = (symbol, ctype)
        self.program.add_global(symbol)
        if decl.init is not None:
            self._lower_global_init(SymbolLoc(symbol), ctype, decl.init)

    def _lower_global_init(
        self, loc: LocExpr, ctype: tm.CType, init: c_ast.Node
    ) -> None:
        """Static initializers: evaluated in the root context."""
        if isinstance(init, c_ast.InitList):
            self._lower_global_initlist(loc, ctype, init)
            return
        value, vtype = self._lower_static_value(init, ctype)
        size = ctype.size if ctype.is_complete else tm.WORD_SIZE
        if isinstance(ctype, tm.CArray) and isinstance(init, c_ast.Constant):
            # char buf[] = "..." — no pointers involved
            return
        if not value.is_unknown:
            self.program.global_inits.append(GlobalInit(loc, value, size))

    def _lower_global_initlist(
        self, loc: LocExpr, ctype: tm.CType, init: c_ast.InitList
    ) -> None:
        entries = self._initlist_entries(ctype, init)
        for offset, mtype, expr in entries:
            self._lower_global_init(_loc_with_offset(loc, offset), mtype, expr)

    def _lower_static_value(
        self, node: c_ast.Node, want: tm.CType
    ) -> tuple[ValueExpr, tm.CType]:
        """Evaluate a static initializer expression without a flow graph."""
        if isinstance(node, c_ast.Constant):
            if node.type == "string":
                sym = self._string_symbol(node)
                return address_of(SymbolLoc(sym)), tm.type_charptr
            return unknown_value(), want
        if isinstance(node, c_ast.UnaryOp) and node.op == "&":
            lval = self._static_lvalue(node.expr)
            if lval is not None:
                return address_of(lval.loc), tm.CPointer(lval.ctype)
            return unknown_value(), want
        if isinstance(node, c_ast.ID):
            entry = self.file_scope.get(node.name)
            if entry is not None:
                sym, ctype = entry
                if isinstance(sym, ProcSymbol):
                    return address_of(SymbolLoc(sym)), tm.CPointer(ctype)
                if isinstance(ctype, tm.CArray):
                    stride = ctype.element.size if ctype.element.is_complete else 1
                    return (
                        address_of(SymbolLoc(sym, 0, 0)),
                        tm.CPointer(ctype.element),
                    )
            return unknown_value(), want
        if isinstance(node, c_ast.Cast):
            return self._lower_static_value(node.expr, want)
        # anything else (arithmetic of constants, sizeof, ...) is unknown
        return unknown_value(), want

    def _static_lvalue(self, node: c_ast.Node) -> Optional[_LValue]:
        if isinstance(node, c_ast.ID):
            entry = self.file_scope.get(node.name)
            if entry is None:
                return None
            sym, ctype = entry
            return _LValue(SymbolLoc(sym), ctype)
        if isinstance(node, c_ast.StructRef) and node.type == ".":
            base = self._static_lvalue(node.name)
            if base is None or not isinstance(base.ctype, tm.CRecord):
                return None
            fieldinfo = base.ctype.field(node.field.name)
            return _LValue(
                _loc_with_offset(base.loc, fieldinfo.offset), fieldinfo.ctype
            )
        if isinstance(node, c_ast.ArrayRef):
            base = self._static_lvalue(node.name)
            if base is None or not isinstance(base.ctype, tm.CArray):
                return None
            elem = base.ctype.element
            stride = elem.size if elem.is_complete else 1
            return _LValue(_loc_with_stride(base.loc, stride), elem)
        return None

    def _string_symbol(self, node: c_ast.Constant) -> StringSymbol:
        text = _unescape_c_string(node.value)
        # number sites per *program*, not per process: a global counter would
        # make block names (and thus rendered results) depend on how many
        # programs were lowered earlier in the same interpreter, breaking
        # run-to-run reproducibility of analysis output
        site = f"str{len(self.program.string_blocks)}"
        sym = StringSymbol(f"<{site}>", size=len(text) + 1, text=text, site=site)
        self.program.string_block(sym)
        return sym

    def _initlist_entries(
        self, ctype: tm.CType, init: c_ast.InitList
    ) -> list[tuple[int, tm.CType, c_ast.Node]]:
        """Flatten one level of an initializer list into (offset, type, expr)."""
        entries: list[tuple[int, tm.CType, c_ast.Node]] = []
        if isinstance(ctype, tm.CRecord) and not ctype.is_union:
            fields = [f for f in ctype.fields if f.bit_width is None]
            index = 0
            for item in init.exprs or []:
                expr = item
                if isinstance(item, c_ast.NamedInitializer):
                    name = item.name[0].name if item.name else None
                    for k, f in enumerate(fields):
                        if f.name == name:
                            index = k
                            break
                    expr = item.expr
                if index < len(fields):
                    f = fields[index]
                    entries.append((f.offset, f.ctype, expr))
                index += 1
        elif isinstance(ctype, tm.CRecord):
            if init.exprs and ctype.fields:
                f = ctype.fields[0]
                entries.append((f.offset, f.ctype, init.exprs[0]))
        elif isinstance(ctype, tm.CArray):
            elem = ctype.element
            stride = elem.size if elem.is_complete else 1
            index = 0
            for item in init.exprs or []:
                expr = item
                if isinstance(item, c_ast.NamedInitializer):
                    # [i] = designators
                    des = item.name[0] if item.name else None
                    value = self.types.try_const_value(des) if des is not None else None
                    if value is not None:
                        index = value
                    expr = item.expr
                entries.append((index * stride, elem, expr))
                index += 1
        else:
            if init.exprs:
                entries.append((0, ctype, init.exprs[0]))
        return entries

    # ------------------------------------------------------------------
    # procedures
    # ------------------------------------------------------------------

    def _lower_funcdef(self, funcdef: c_ast.FuncDef) -> None:
        name = funcdef.decl.name
        ftype = self.types.type_of(funcdef.decl.type)
        assert isinstance(ftype, tm.CFunction)
        proc = Procedure(name, ftype=ftype, coord=str(funcdef.coord))
        if funcdef.coord is not None and funcdef.body.coord is not None:
            proc.source_lines = 1
        self.program.add_procedure(proc)
        self.program.proc_block(name)
        lowerer = _ProcLowerer(self, proc, funcdef)
        lowerer.run()


def lower_translation_unit(ast: c_ast.FileAST, name: str = "<program>") -> Program:
    """One-shot lowering of a parsed translation unit."""
    return Lowerer(name).lower(ast)


# ---------------------------------------------------------------------------
# per-procedure lowering
# ---------------------------------------------------------------------------


class _ProcLowerer:
    def __init__(self, parent: Lowerer, proc: Procedure, funcdef: c_ast.FuncDef) -> None:
        self.parent = parent
        self.types = parent.types
        self.program = parent.program
        self.proc = proc
        self.funcdef = funcdef
        self.cur: Optional[Node] = proc.entry
        # lexical scopes: innermost last; name -> (LocalSymbol, CType)
        self.scopes: list[dict[str, tuple[Symbol, tm.CType]]] = [{}]
        self.break_targets: list[Node] = []
        self.continue_targets: list[Node] = []
        self.labels: dict[str, Node] = {}
        self.pending_gotos: list[tuple[str, Node]] = []
        self._temp_counter = itertools.count()

    # -- plumbing --------------------------------------------------------

    def append(self, node: Node) -> Node:
        if self.cur is not None:
            self.cur.add_succ(node)
        self.cur = node
        return node

    def new_temp(self, ctype: tm.CType, hint: str = "t") -> LocalSymbol:
        name = f"__{hint}{next(self._temp_counter)}"
        size = ctype.size if ctype.is_complete else tm.WORD_SIZE
        sym = LocalSymbol(name, size=size, proc_name=self.proc.name)
        self.proc.add_local(sym)
        self.scopes[0][name] = (sym, ctype)
        return sym

    def lookup(self, name: str) -> Optional[tuple[Symbol, tm.CType]]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        entry = self.parent.file_scope.get(name)
        if entry is not None:
            return entry
        return None

    def _size_of(self, ctype: tm.CType) -> int:
        ctype = self.types.refresh(ctype)
        return ctype.size if ctype.is_complete else tm.WORD_SIZE

    # -- driver -----------------------------------------------------------

    def run(self) -> None:
        self._declare_formals()
        if self.funcdef.body is not None:
            self.stmt(self.funcdef.body)
        if self.cur is not None:
            self.cur.add_succ(self.proc.exit)
        for label, node in self.pending_gotos:
            target = self.labels.get(label)
            if target is None:
                raise FrontendError(
                    f"goto to unknown label {label!r} in {self.proc.name}"
                )
            node.add_succ(target)
        self.proc.source_lines = self._count_lines()
        self.proc.finalize()

    def _count_lines(self) -> int:
        lo = hi = None

        def visit(n: c_ast.Node) -> None:
            nonlocal lo, hi
            coord = getattr(n, "coord", None)
            if coord is not None and getattr(coord, "line", 0):
                line = coord.line
                lo = line if lo is None or line < lo else lo
                hi = line if hi is None or line > hi else hi
            for _, child in n.children():
                visit(child)
        visit(self.funcdef)
        if lo is None or hi is None:
            return 1
        return hi - lo + 1

    def _declare_formals(self) -> None:
        decl = self.funcdef.decl.type
        assert isinstance(decl, c_ast.FuncDecl)
        params = decl.args.params if decl.args is not None else []
        # K&R-style parameter declarations
        knr = {}
        if self.funcdef.param_decls:
            for d in self.funcdef.param_decls:
                knr[d.name] = self.types.type_of(d.type)
        index = 0
        for p in params:
            if isinstance(p, c_ast.EllipsisParam):
                continue
            if isinstance(p, c_ast.ID):
                name = p.name
                ctype = knr.get(name, tm.type_int)
            elif isinstance(p, c_ast.Typename) or p.name is None:
                continue  # unnamed parameter
            else:
                name = p.name
                ctype = self.types.type_of(p.type)
            ctype = TypeBuilder.decay(ctype)
            if isinstance(ctype, tm.CVoid):
                continue
            sym = LocalSymbol(
                name,
                size=self._size_of(ctype),
                proc_name=self.proc.name,
                is_formal=True,
                formal_index=index,
            )
            index += 1
            self.proc.add_local(sym)
            self.proc.formals.append(sym)
            self.scopes[0][name] = (sym, ctype)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def stmt(self, node: c_ast.Node) -> None:
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        # expression statement
        self.rvalue(node)

    def _stmt_Compound(self, node: c_ast.Compound) -> None:
        self.scopes.append({})
        try:
            for item in node.block_items or []:
                self.stmt(item)
        finally:
            self.scopes.pop()

    def _stmt_Decl(self, node: c_ast.Decl) -> None:
        storage = node.storage or []
        if "typedef" in storage:
            self.types.add_typedef(node.name, node.type)
            return
        ctype = self.types.type_of(node.type)
        if isinstance(ctype, tm.CFunction):
            if node.name and node.name not in self.parent.file_scope:
                self.parent.file_scope[node.name] = (ProcSymbol(node.name), ctype)
            return
        if node.name is None:
            return
        if "extern" in storage:
            entry = self.parent.file_scope.get(node.name)
            if entry is None:
                sym = GlobalSymbol(node.name, size=self._size_of(ctype))
                self.parent.file_scope[node.name] = (sym, ctype)
                self.program.add_global(sym)
            return
        if "static" in storage:
            mangled = f"{self.proc.name}.{node.name}.{next(self.parent._static_counter)}"
            sym = GlobalSymbol(mangled, size=self._size_of(ctype), is_static=True)
            self.program.add_global(sym)
            self.scopes[-1][node.name] = (sym, ctype)
            if node.init is not None:
                self.parent._lower_global_init(SymbolLoc(sym), ctype, node.init)
            return
        # VLA dimensions contain expressions; evaluate them for effect
        self._eval_vla_dims(node.type)
        sym = LocalSymbol(node.name, size=self._size_of(ctype), proc_name=self.proc.name)
        self.proc.add_local(sym)
        self.scopes[-1][node.name] = (sym, ctype)
        if node.init is not None:
            self._lower_local_init(SymbolLoc(sym), ctype, node.init)

    def _eval_vla_dims(self, tnode: c_ast.Node) -> None:
        if isinstance(tnode, c_ast.ArrayDecl):
            if tnode.dim is not None and self.types.try_const_value(tnode.dim) is None:
                self.rvalue(tnode.dim)
            self._eval_vla_dims(tnode.type)
        elif isinstance(tnode, (c_ast.TypeDecl, c_ast.PtrDecl)):
            if hasattr(tnode, "type") and isinstance(tnode.type, c_ast.Node):
                if isinstance(tnode.type, c_ast.ArrayDecl):
                    self._eval_vla_dims(tnode.type)

    def _lower_local_init(
        self, loc: LocExpr, ctype: tm.CType, init: c_ast.Node
    ) -> None:
        if isinstance(init, c_ast.InitList):
            for offset, mtype, expr in self.parent._initlist_entries(ctype, init):
                self._lower_local_init(_loc_with_offset(loc, offset), mtype, expr)
            return
        if isinstance(ctype, tm.CArray):
            if isinstance(init, c_ast.Constant) and init.type == "string":
                return  # char buf[] = "..." copies characters, not pointers
        rv = self.rvalue(init)
        size = min(self._size_of(ctype), self._size_of(rv.ctype))
        coord = str(init.coord) if getattr(init, "coord", None) else None
        self.append(AssignNode(self.proc, loc, rv.value, max(size, 1), coord))

    def _stmt_If(self, node: c_ast.If) -> None:
        self.rvalue(node.cond)  # evaluate for side effects
        branch = self.append(BranchNode(self.proc))
        join = MeetNode(self.proc)
        # then arm
        self.cur = branch
        if node.iftrue is not None:
            self.stmt(node.iftrue)
        if self.cur is not None:
            self.cur.add_succ(join)
        # else arm
        self.cur = branch
        if node.iffalse is not None:
            self.stmt(node.iffalse)
        if self.cur is not None:
            self.cur.add_succ(join)
        self.cur = join if join.preds else None

    def _stmt_While(self, node: c_ast.While) -> None:
        head = self.append(MeetNode(self.proc))
        self.rvalue(node.cond)
        branch = self.append(BranchNode(self.proc))
        exit_meet = MeetNode(self.proc)
        branch.add_succ(exit_meet)
        self.break_targets.append(exit_meet)
        self.continue_targets.append(head)
        self.cur = branch
        if node.stmt is not None:
            self.stmt(node.stmt)
        if self.cur is not None:
            self.cur.add_succ(head)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.cur = exit_meet

    def _stmt_DoWhile(self, node: c_ast.DoWhile) -> None:
        head = self.append(MeetNode(self.proc))
        exit_meet = MeetNode(self.proc)
        cond_meet = MeetNode(self.proc)
        self.break_targets.append(exit_meet)
        self.continue_targets.append(cond_meet)
        if node.stmt is not None:
            self.stmt(node.stmt)
        if self.cur is not None:
            self.cur.add_succ(cond_meet)
        self.cur = cond_meet if cond_meet.preds else None
        if self.cur is not None:
            self.rvalue(node.cond)
            branch = self.append(BranchNode(self.proc))
            branch.add_succ(head)
            branch.add_succ(exit_meet)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.cur = exit_meet if exit_meet.preds else None

    def _stmt_For(self, node: c_ast.For) -> None:
        if node.init is not None:
            if isinstance(node.init, c_ast.DeclList):
                self.scopes.append({})
                for d in node.init.decls:
                    self.stmt(d)
            else:
                self.stmt(node.init)
        head = self.append(MeetNode(self.proc))
        if node.cond is not None:
            self.rvalue(node.cond)
        branch = self.append(BranchNode(self.proc))
        exit_meet = MeetNode(self.proc)
        branch.add_succ(exit_meet)
        step_meet = MeetNode(self.proc)
        self.break_targets.append(exit_meet)
        self.continue_targets.append(step_meet)
        self.cur = branch
        if node.stmt is not None:
            self.stmt(node.stmt)
        if self.cur is not None:
            self.cur.add_succ(step_meet)
        self.cur = step_meet if step_meet.preds else None
        if self.cur is not None:
            if node.next is not None:
                self.rvalue(node.next)
            if self.cur is not None:
                self.cur.add_succ(head)
        self.break_targets.pop()
        self.continue_targets.pop()
        if isinstance(node.init, c_ast.DeclList):
            self.scopes.pop()
        self.cur = exit_meet

    def _stmt_Switch(self, node: c_ast.Switch) -> None:
        self.rvalue(node.cond)
        dispatch = self.append(BranchNode(self.proc))
        exit_meet = MeetNode(self.proc)
        self.break_targets.append(exit_meet)
        self.cur = None
        self._switch_had_default = False
        body = node.stmt
        items = body.block_items or [] if isinstance(body, c_ast.Compound) else [body]
        self.scopes.append({})
        for item in items:
            self._switch_item(item, dispatch)
        self.scopes.pop()
        if self.cur is not None:
            self.cur.add_succ(exit_meet)
        if not self._switch_had_default:
            dispatch.add_succ(exit_meet)
        self._switch_had_default = False
        self.break_targets.pop()
        self.cur = exit_meet if exit_meet.preds else None

    _switch_had_default = False

    def _switch_item(self, item: c_ast.Node, dispatch: Node) -> None:
        while isinstance(item, (c_ast.Case, c_ast.Default)):
            meet = MeetNode(self.proc)
            dispatch.add_succ(meet)
            if self.cur is not None:
                self.cur.add_succ(meet)  # fall-through
            self.cur = meet
            if isinstance(item, c_ast.Default):
                self._switch_had_default = True
            stmts = item.stmts or []
            # pycparser nests the first statement inside the case
            inner = None
            rest = []
            if stmts:
                inner, rest = stmts[0], stmts[1:]
            if inner is not None and isinstance(inner, (c_ast.Case, c_ast.Default)):
                item = inner
                continue
            if inner is not None:
                self.stmt(inner)
            for s in rest:
                self.stmt(s)
            return
        self.stmt(item)

    def _stmt_Break(self, node: c_ast.Break) -> None:
        if not self.break_targets:
            raise FrontendError("break outside loop/switch", node.coord)
        if self.cur is not None:
            self.cur.add_succ(self.break_targets[-1])
        self.cur = None

    def _stmt_Continue(self, node: c_ast.Continue) -> None:
        if not self.continue_targets:
            raise FrontendError("continue outside loop", node.coord)
        if self.cur is not None:
            self.cur.add_succ(self.continue_targets[-1])
        self.cur = None

    def _stmt_Return(self, node: c_ast.Return) -> None:
        if node.expr is not None:
            rv = self.rvalue(node.expr)
            size = self._size_of(rv.ctype)
            self.append(
                AssignNode(
                    self.proc,
                    SymbolLoc(self.proc.return_symbol),
                    rv.value,
                    max(size, 1),
                    str(node.coord) if node.coord else None,
                )
            )
        if self.cur is not None:
            self.cur.add_succ(self.proc.exit)
        self.cur = None

    def _stmt_Goto(self, node: c_ast.Goto) -> None:
        if self.cur is not None:
            target = self.labels.get(node.name)
            if target is not None:
                self.cur.add_succ(target)
            else:
                self.pending_gotos.append((node.name, self.cur))
        self.cur = None

    def _stmt_Label(self, node: c_ast.Label) -> None:
        meet = MeetNode(self.proc)
        self.labels[node.name] = meet
        if self.cur is not None:
            self.cur.add_succ(meet)
        self.cur = meet
        if node.stmt is not None:
            self.stmt(node.stmt)

    def _stmt_EmptyStatement(self, node: c_ast.EmptyStatement) -> None:
        pass

    def _stmt_Pragma(self, node: c_ast.Pragma) -> None:
        pass

    def _stmt_DeclList(self, node: c_ast.DeclList) -> None:
        for d in node.decls:
            self.stmt(d)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def rvalue(self, node: c_ast.Node) -> _RValue:
        method = getattr(self, f"_rv_{type(node).__name__}", None)
        if method is None:
            raise FrontendError(
                f"unsupported expression {type(node).__name__}", getattr(node, "coord", None)
            )
        return method(node)

    def lvalue(self, node: c_ast.Node) -> _LValue:
        method = getattr(self, f"_lv_{type(node).__name__}", None)
        if method is None:
            raise FrontendError(
                f"expression is not an lvalue: {type(node).__name__}",
                getattr(node, "coord", None),
            )
        return method(node)

    # -- lvalues ---------------------------------------------------------

    def _lv_ID(self, node: c_ast.ID) -> _LValue:
        entry = self.lookup(node.name)
        if entry is None:
            if node.name in self.types.enum_constants:
                raise FrontendError(f"enum constant {node.name} is not an lvalue", node.coord)
            # implicit declaration: treat as a fresh global int
            sym = GlobalSymbol(node.name, size=tm.WORD_SIZE)
            self.parent.file_scope[node.name] = (sym, tm.type_int)
            self.program.add_global(sym)
            return _LValue(SymbolLoc(sym), tm.type_int)
        sym, ctype = entry
        if isinstance(sym, ProcSymbol):
            return _LValue(SymbolLoc(sym), ctype)
        return _LValue(SymbolLoc(sym), ctype)

    def _lv_UnaryOp(self, node: c_ast.UnaryOp) -> _LValue:
        if node.op != "*":
            raise FrontendError(f"unary {node.op} is not an lvalue", node.coord)
        rv = self.rvalue(node.expr)
        pointee = self._pointee(rv.ctype)
        if isinstance(pointee, tm.CFunction):
            # *fp in a call position: the lvalue is the function itself
            raise FrontendError("cannot use function as data lvalue", node.coord)
        return _LValue(DerefLoc(rv.value), pointee)

    def _lv_ArrayRef(self, node: c_ast.ArrayRef) -> _LValue:
        base_node, index_node = node.name, node.subscript
        base_t = self._type_of_expr(base_node)
        if not isinstance(base_t, (tm.CArray, tm.CPointer)):
            base_node, index_node = index_node, base_node  # i[a] form
            base_t = self._type_of_expr(base_node)
        self.rvalue(index_node)  # evaluate index for side effects
        if isinstance(base_t, tm.CArray):
            base = self.lvalue(base_node)
            assert isinstance(base.ctype, tm.CArray)
            elem = base.ctype.element
            stride = elem.size if elem.is_complete else 1
            return _LValue(_loc_with_stride(base.loc, stride), elem)
        rv = self.rvalue(base_node)
        elem = self._pointee(rv.ctype)
        stride = elem.size if elem.is_complete else 1
        return _LValue(DerefLoc(rv.value, 0, stride), elem)

    def _lv_StructRef(self, node: c_ast.StructRef) -> _LValue:
        fname = node.field.name
        if node.type == ".":
            base = self.lvalue(node.name)
            record = self.types.refresh(base.ctype)
            if not isinstance(record, tm.CRecord):
                return _LValue(base.loc, tm.type_int)
            f = record.field(fname)
            return _LValue(_loc_with_offset(base.loc, f.offset), f.ctype)
        rv = self.rvalue(node.name)
        record = self.types.refresh(self._pointee(rv.ctype))
        if not isinstance(record, tm.CRecord):
            return _LValue(DerefLoc(rv.value), tm.type_int)
        f = record.field(fname)
        return _LValue(DerefLoc(rv.value, f.offset), f.ctype)

    def _lv_Cast(self, node: c_ast.Cast) -> _LValue:
        # (T)x as lvalue is non-standard; treat as the underlying lvalue
        inner = self.lvalue(node.expr)
        return _LValue(inner.loc, self.types.type_of(node.to_type))

    def _lv_Paren(self, node) -> _LValue:  # pragma: no cover - pycparser strips parens
        return self.lvalue(node.expr)

    # -- rvalues -----------------------------------------------------------

    def _type_of_expr(self, node: c_ast.Node) -> tm.CType:
        """Best-effort type of an expression without lowering it."""
        if isinstance(node, c_ast.ID):
            entry = self.lookup(node.name)
            if entry is not None:
                return entry[1]
            if node.name in self.types.enum_constants:
                return tm.type_int
            return tm.type_int
        if isinstance(node, c_ast.Constant):
            if node.type == "string":
                return tm.CPointer(tm.type_char)
            if node.type in ("float", "double", "long double"):
                return tm.type_double
            return tm.type_int
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "&":
                return tm.CPointer(self._type_of_expr(node.expr))
            if node.op == "*":
                return self._pointee(self._type_of_expr(node.expr))
            if node.op == "sizeof":
                return tm.type_uint
            return self._type_of_expr(node.expr)
        if isinstance(node, c_ast.BinaryOp):
            lt = self._type_of_expr(node.left)
            rt = self._type_of_expr(node.right)
            if node.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
                return tm.type_int
            if node.op in ("+", "-"):
                if isinstance(lt, (tm.CPointer, tm.CArray)):
                    if node.op == "-" and isinstance(rt, (tm.CPointer, tm.CArray)):
                        return tm.type_int
                    return TypeBuilder.decay(lt)
                if isinstance(rt, (tm.CPointer, tm.CArray)):
                    return TypeBuilder.decay(rt)
            if isinstance(lt, tm.CFloating) or isinstance(rt, tm.CFloating):
                return tm.type_double
            return lt if lt.is_arithmetic else tm.type_int
        if isinstance(node, c_ast.Cast):
            return self.types.type_of(node.to_type)
        if isinstance(node, c_ast.ArrayRef):
            base_t = self._type_of_expr(node.name)
            if isinstance(base_t, tm.CArray):
                return base_t.element
            if isinstance(base_t, tm.CPointer):
                return base_t.pointee
            other = self._type_of_expr(node.subscript)
            if isinstance(other, tm.CArray):
                return other.element
            if isinstance(other, tm.CPointer):
                return other.pointee
            return tm.type_int
        if isinstance(node, c_ast.StructRef):
            base_t = self._type_of_expr(node.name)
            if node.type == "->":
                base_t = self._pointee(base_t)
            base_t = self.types.refresh(base_t)
            if isinstance(base_t, tm.CRecord):
                f = base_t.find_field(node.field.name)
                if f is not None:
                    return f.ctype
            return tm.type_int
        if isinstance(node, c_ast.FuncCall):
            ftype = self._callee_type(node.name)
            return ftype.ret if ftype is not None else tm.type_int
        if isinstance(node, c_ast.Assignment):
            return self._type_of_expr(node.lvalue)
        if isinstance(node, c_ast.TernaryOp):
            t = self._type_of_expr(node.iftrue)
            if isinstance(t, tm.CVoid):
                return self._type_of_expr(node.iffalse)
            return t
        return tm.type_int

    def _callee_type(self, name_node: c_ast.Node) -> Optional[tm.CFunction]:
        t = self._type_of_expr(name_node)
        if isinstance(t, tm.CFunction):
            return t
        if isinstance(t, tm.CPointer) and isinstance(t.pointee, tm.CFunction):
            return t.pointee
        return None

    @staticmethod
    def _pointee(ctype: tm.CType) -> tm.CType:
        if isinstance(ctype, tm.CPointer):
            return ctype.pointee
        if isinstance(ctype, tm.CArray):
            return ctype.element
        return tm.type_int  # dereferencing a non-pointer type (cast away)

    def _rv_Constant(self, node: c_ast.Constant) -> _RValue:
        if node.type == "string":
            sym = self.parent._string_symbol(node)
            return _RValue(address_of(SymbolLoc(sym)), tm.CPointer(tm.type_char))
        if node.type in ("float", "double", "long double"):
            return _RValue(unknown_value(), tm.type_double)
        return _RValue(unknown_value(), tm.type_int)

    def _rv_ID(self, node: c_ast.ID) -> _RValue:
        if node.name in self.types.enum_constants:
            entry = self.lookup(node.name)
            if entry is None:
                return _RValue(unknown_value(), tm.type_int)
        entry = self.lookup(node.name)
        if entry is None:
            if node.name in self.types.enum_constants:
                return _RValue(unknown_value(), tm.type_int)
            # call to/use of an undeclared identifier: implicit int global
            sym = GlobalSymbol(node.name, size=tm.WORD_SIZE)
            self.parent.file_scope[node.name] = (sym, tm.type_int)
            self.program.add_global(sym)
            return _RValue(contents_of(SymbolLoc(sym), tm.WORD_SIZE), tm.type_int)
        sym, ctype = entry
        if isinstance(sym, ProcSymbol) or isinstance(ctype, tm.CFunction):
            return _RValue(address_of(SymbolLoc(sym)), tm.CPointer(ctype))
        if isinstance(ctype, tm.CArray):
            elem = ctype.element
            return _RValue(address_of(SymbolLoc(sym)), tm.CPointer(elem))
        size = self._size_of(ctype)
        return _RValue(contents_of(SymbolLoc(sym), size), ctype)

    def _lvalue_to_rvalue(self, lval: _LValue) -> _RValue:
        if isinstance(lval.ctype, tm.CArray):
            elem = lval.ctype.element
            return _RValue(address_of(lval.loc), tm.CPointer(elem))
        if isinstance(lval.ctype, tm.CFunction):
            return _RValue(address_of(lval.loc), tm.CPointer(lval.ctype))
        size = self._size_of(lval.ctype)
        return _RValue(contents_of(lval.loc, size), lval.ctype)

    def _rv_ArrayRef(self, node: c_ast.ArrayRef) -> _RValue:
        return self._lvalue_to_rvalue(self._lv_ArrayRef(node))

    def _rv_StructRef(self, node: c_ast.StructRef) -> _RValue:
        return self._lvalue_to_rvalue(self._lv_StructRef(node))

    def _rv_UnaryOp(self, node: c_ast.UnaryOp) -> _RValue:
        op = node.op
        if op == "&":
            target_t = self._type_of_expr(node.expr)
            if isinstance(target_t, tm.CFunction):
                return self.rvalue(node.expr)  # &f == f for functions
            lval = self.lvalue(node.expr)
            return _RValue(address_of(lval.loc), tm.CPointer(lval.ctype))
        if op == "*":
            rv = self.rvalue(node.expr)
            pointee = self._pointee(rv.ctype)
            if isinstance(pointee, tm.CFunction):
                return rv  # *fp == fp for function pointers
            pointee = self.types.refresh(pointee)
            if isinstance(pointee, tm.CArray):
                # *p where p points to an array: the result decays to a
                # pointer to the first element — the same pointer value
                return _RValue(rv.value, tm.CPointer(pointee.element))
            size = self._size_of(pointee)
            return _RValue(contents_of(DerefLoc(rv.value), size), pointee)
        if op == "sizeof":
            return _RValue(unknown_value(), tm.type_uint)
        if op in ("++", "--", "p++", "p--"):
            lval = self.lvalue(node.expr)
            rv = self._lvalue_to_rvalue(lval)
            if isinstance(lval.ctype, tm.CPointer):
                elem = lval.ctype.pointee
                stride = elem.size if elem.is_complete else 1
                newval = ValueExpr((AdjustTerm(rv.value, 0, stride),))
            else:
                newval = unknown_value()
            self.append(
                AssignNode(
                    self.proc,
                    lval.loc,
                    newval,
                    self._size_of(lval.ctype),
                    str(node.coord) if node.coord else None,
                )
            )
            # pre-increment yields the new value; post yields the old
            return _RValue(newval if op in ("++", "--") else rv.value, lval.ctype)
        if op in ("-", "+", "~", "!"):
            self.rvalue(node.expr)
            return _RValue(unknown_value(), self._type_of_expr(node))
        raise FrontendError(f"unsupported unary operator {op}", node.coord)

    def _rv_BinaryOp(self, node: c_ast.BinaryOp) -> _RValue:
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit(node)
        left = self.rvalue(node.left)
        right = self.rvalue(node.right)
        if op in ("<", ">", "<=", ">=", "==", "!="):
            return _RValue(unknown_value(), tm.type_int)
        lt, rt = left.ctype, right.ctype
        l_ptr = isinstance(lt, (tm.CPointer, tm.CArray))
        r_ptr = isinstance(rt, (tm.CPointer, tm.CArray))
        if op in ("+", "-"):
            if l_ptr and r_ptr:
                return _RValue(unknown_value(), tm.type_int)  # pointer difference
            if l_ptr or r_ptr:
                ptr, idx_node = (left, node.right) if l_ptr else (right, node.left)
                elem = self._pointee(ptr.ctype)
                esize = elem.size if elem.is_complete else 1
                const = self.types.try_const_value(idx_node)
                if const is not None:
                    stride = abs(const) * esize
                else:
                    stride = esize
                return _RValue(
                    ValueExpr((AdjustTerm(ptr.value, 0, stride),)),
                    TypeBuilder.decay(ptr.ctype),
                )
        # any other arithmetic: blur every pointer-carrying operand (§3.1)
        terms = []
        for side in (left, right):
            if not side.value.is_unknown:
                terms.append(AdjustTerm(side.value, blur=True))
        if terms:
            return _RValue(ValueExpr(tuple(terms)), self._type_of_expr(node))
        return _RValue(unknown_value(), self._type_of_expr(node))

    def _short_circuit(self, node: c_ast.BinaryOp) -> _RValue:
        """`a && b` / `a || b`: b may or may not run — build a diamond."""
        self.rvalue(node.left)
        branch = self.append(BranchNode(self.proc))
        join = MeetNode(self.proc)
        branch.add_succ(join)  # path that skips the rhs
        self.cur = branch
        self.rvalue(node.right)
        if self.cur is not None:
            self.cur.add_succ(join)
        self.cur = join
        return _RValue(unknown_value(), tm.type_int)

    def _rv_TernaryOp(self, node: c_ast.TernaryOp) -> _RValue:
        self.rvalue(node.cond)
        result_t = self._type_of_expr(node)
        branch = self.append(BranchNode(self.proc))
        join = MeetNode(self.proc)
        temp = self.new_temp(result_t, "cond")
        size = self._size_of(result_t)
        for arm in (node.iftrue, node.iffalse):
            self.cur = branch
            if arm is not None:
                rv = self.rvalue(arm)
                self.append(AssignNode(self.proc, SymbolLoc(temp), rv.value, size))
            if self.cur is not None:
                self.cur.add_succ(join)
        self.cur = join
        return _RValue(contents_of(SymbolLoc(temp), size), result_t)

    def _rv_Assignment(self, node: c_ast.Assignment) -> _RValue:
        lval = self.lvalue(node.lvalue)
        size = self._size_of(lval.ctype)
        if node.op == "=":
            rv = self.rvalue(node.rvalue)
            value = rv.value
            if isinstance(rv.ctype, tm.CRecord) or isinstance(lval.ctype, tm.CRecord):
                size = min(size, self._size_of(rv.ctype))
        else:
            op = node.op[:-1]  # '+=' -> '+'
            old = self._lvalue_to_rvalue(lval)
            rhs = self.rvalue(node.rvalue)
            if op in ("+", "-") and isinstance(lval.ctype, tm.CPointer):
                elem = lval.ctype.pointee
                esize = elem.size if elem.is_complete else 1
                const = self.types.try_const_value(node.rvalue)
                stride = abs(const) * esize if const is not None else esize
                value = ValueExpr((AdjustTerm(old.value, 0, stride),))
            else:
                terms = []
                for side in (old, rhs):
                    if not side.value.is_unknown:
                        terms.append(AdjustTerm(side.value, blur=True))
                value = ValueExpr(tuple(terms)) if terms else unknown_value()
        coord = str(node.coord) if node.coord else None
        self.append(AssignNode(self.proc, lval.loc, value, max(size, 1), coord))
        return _RValue(value, lval.ctype)

    def _rv_Cast(self, node: c_ast.Cast) -> _RValue:
        to_type = self.types.type_of(node.to_type)
        rv = self.rvalue(node.expr)
        return _RValue(rv.value, TypeBuilder.decay(to_type))

    def _rv_FuncCall(self, node: c_ast.FuncCall) -> _RValue:
        return self._lower_call(node, want_value=True)

    def _lower_call(self, node: c_ast.FuncCall, want_value: bool) -> _RValue:
        ftype = self._callee_type(node.name)
        ret_t = ftype.ret if ftype is not None else tm.type_int
        target_rv = self.rvalue(node.name)
        args: list[ValueExpr] = []
        if node.args is not None:
            for a in node.args.exprs:
                args.append(self.rvalue(a).value)
        # record external callees for diagnostics
        if isinstance(node.name, c_ast.ID):
            name = node.name.name
            if name not in self.program.procedures:
                self.program.external_calls.add(name)
        dst: Optional[LocExpr] = None
        dst_size = 0
        result_value: ValueExpr = unknown_value()
        returns_value = not isinstance(ret_t, tm.CVoid)
        if want_value and returns_value:
            temp = self.new_temp(ret_t if ret_t.is_complete else tm.type_int, "ret")
            dst = SymbolLoc(temp)
            dst_size = self._size_of(ret_t)
            result_value = contents_of(dst, dst_size)
        coord = getattr(node, "coord", None)
        site = f"{self.proc.name}@{coord}" if coord else f"{self.proc.name}@call"
        call = CallNode(
            self.proc, target_rv.value, args, dst, dst_size, site, str(coord)
        )
        self.append(call)
        return _RValue(result_value, ret_t)

    def _rv_ExprList(self, node: c_ast.ExprList) -> _RValue:
        result = _RValue(unknown_value(), tm.type_int)
        for expr in node.exprs:
            result = self.rvalue(expr)
        return result

    def _rv_CompoundLiteral(self, node) -> _RValue:
        ctype = self.types.type_of(node.type)
        temp = self.new_temp(ctype, "lit")
        if isinstance(node.init, c_ast.InitList):
            self._lower_local_init(SymbolLoc(temp), ctype, node.init)
        return self._lvalue_to_rvalue(_LValue(SymbolLoc(temp), ctype))

    _lv_CompoundLiteral = None  # not addressable in our model
