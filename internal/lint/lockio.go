package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockIO flags calls that can block on I/O while a sync.Mutex (or
// RWMutex) acquired in the enclosing function is still held — the
// pattern PR 7 had to fix by hand when journal writes ran inside
// Manager.mu and a slow disk could stall every API request.
//
// "Can block on I/O" means:
//   - filesystem and process calls in os / os/exec / io/ioutil,
//     methods on *os.File;
//   - anything in net / net/http (dials, requests, response writes);
//   - the project's own storage and fleet layers: sweep.Key and the
//     sweep.Cache accessors that digest or persist (Key hashes trace
//     files; Put/PutKeyed rewrite the snapshot), durable.File.Write
//     (the snapshot writer behind the cache and the daemon's job
//     journal), and every internal/client method (each one rides an
//     *http.Client);
//   - any function in the analyzed package that transitively reaches
//     one of the above (intra-package propagation, so a helper like
//     durable's publish taints its callers).
//
// The walk is flow-approximate: statements are visited in source
// order, an Unlock anywhere clears the held state for what follows,
// and `defer mu.Unlock()` holds to the end of the function. Mutexes
// acquired by callers are invisible — the analyzer checks each
// function against the locks it takes itself. Dedicated I/O-
// serialization mutexes (whose entire job is ordering writes) are the
// deliberate exception; annotate them //lint:allow lockio <reason>.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "forbid blocking I/O (files, network, subprocesses, journal/cache writes) while a sync.Mutex acquired in the enclosing function is held",
	Run:  runLockIO,
}

// ioSinkFuncs lists os package functions that touch the filesystem or
// process table. Pure environment/string helpers (Getenv, Getpid, ...)
// are not here.
var ioSinkFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
		"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
		"ReadDir": true, "Stat": true, "Lstat": true, "Chmod": true,
		"Chtimes": true, "Truncate": true, "Link": true, "Symlink": true,
		"Readlink": true, "Pipe": true, "StartProcess": true, "Getwd": true,
	},
	// The whole package blocks by design.
	"net":       nil,
	"net/http":  nil,
	"os/exec":   nil,
	"io/ioutil": nil,
}

// projectSinks names project functions/methods that block on I/O, keyed
// by "pkgpath.TypeName.Method" or "pkgpath.Func". sweep.Key digests
// every referenced trace file; the Cache mutators and durable.File.Write
// rewrite an on-disk snapshot; internal/client calls cross the network.
var projectSinks = map[string]bool{
	"repro/internal/sweep.Key":            true,
	"repro/internal/sweep.OpenCache":      true,
	"repro/internal/sweep.Cache.Get":      true,
	"repro/internal/sweep.Cache.Put":      true,
	"repro/internal/sweep.Cache.PutKeyed": true,
	"repro/internal/sweep.Cache.Snapshot": true,
	"repro/internal/durable.File.Write":   true,
}

// clientPackages are project packages whose every *method* call is
// remote I/O (every Client and Peer method rides an *http.Client).
// Package-level functions there are pure constructors and validators
// (New, ValidateTraceFiles) and are not sinks.
var clientPackages = map[string]bool{
	"repro/internal/client": true,
}

func runLockIO(pass *Pass) error {
	// Pass 1: which functions in this package perform I/O directly?
	decls := packageFuncDecls(pass)
	tainted := map[*types.Func]string{} // func -> why
	for fn, decl := range decls {
		if why := directIOCall(pass, decl); why != "" {
			tainted[fn] = why
		}
	}

	// Pass 2: propagate through same-package calls to a fixed point, so
	// a helper that writes a file taints everything that calls it.
	for changed := true; changed; {
		changed = false
		for fn, decl := range decls {
			if _, done := tainted[fn]; done {
				continue
			}
			callee, why := firstTaintedCall(pass, decl, tainted)
			if callee != nil {
				tainted[fn] = fmt.Sprintf("calls %s, which %s", callee.Name(), why)
				changed = true
			}
		}
	}

	// Pass 3: walk every function body tracking locks it acquires, and
	// flag tainted or sink calls made while one is held.
	for _, decl := range decls {
		if decl.Body == nil {
			continue
		}
		w := &lockWalker{pass: pass, tainted: tainted, held: map[string]token.Pos{}}
		w.walkStmts(decl.Body.List)
	}
	return nil
}

// packageFuncDecls maps each function object declared in the package to
// its declaration (methods included).
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// directIOCall returns a description of the first direct I/O sink call
// in the declaration, or "".
func directIOCall(pass *Pass, decl *ast.FuncDecl) string {
	var why string
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s := sinkDescription(pass, call); s != "" {
			why = fmt.Sprintf("%s at %s", s, pass.Fset.Position(call.Pos()))
		}
		return true
	})
	return why
}

// sinkDescription classifies a call as blocking I/O, returning a short
// description or "".
func sinkDescription(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)

	if sig != nil && sig.Recv() != nil {
		// Methods: *os.File always blocks; whole-package sinks (net,
		// net/http, os/exec, internal/client) block regardless of
		// receiver; otherwise match the explicit project sink list.
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			if pkg == "os" && named.Obj().Name() == "File" {
				return fmt.Sprintf("calls (*os.File).%s", fn.Name())
			}
		}
		if names, listed := ioSinkFuncs[pkg]; listed && names == nil {
			return fmt.Sprintf("calls %s.%s", fn.Pkg().Name(), fn.Name())
		}
		if clientPackages[pkg] {
			return fmt.Sprintf("calls %s.%s (remote I/O)", fn.Pkg().Name(), fn.Name())
		}
		if projectSinks[fullFuncKey(fn)] {
			return fmt.Sprintf("calls %s (storage I/O)", fn.Name())
		}
		return ""
	}

	if names, listed := ioSinkFuncs[pkg]; listed {
		if names == nil || names[fn.Name()] {
			return fmt.Sprintf("calls %s.%s", fn.Pkg().Name(), fn.Name())
		}
	}
	if projectSinks[fullFuncKey(fn)] {
		return fmt.Sprintf("calls %s (storage I/O)", fn.Name())
	}
	return ""
}

// fullFuncKey renders "pkgpath.Type.Method" or "pkgpath.Func" for
// matching against projectSinks.
func fullFuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// firstTaintedCall finds a call in decl to an already-tainted function
// of the same package.
func firstTaintedCall(pass *Pass, decl *ast.FuncDecl, tainted map[*types.Func]string) (callee *types.Func, why string) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if callee != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if w, ok := tainted[fn]; ok {
			callee, why = fn, w
		}
		return true
	})
	return callee, why
}

// lockWalker tracks, in source order, which mutexes the current
// function holds.
type lockWalker struct {
	pass    *Pass
	tainted map[*types.Func]string
	held    map[string]token.Pos // mutex expr -> Lock() position
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, locked, isOp := w.lockOp(s.X); isOp {
			if locked {
				w.held[key] = s.Pos()
			} else {
				delete(w.held, key)
			}
			return
		}
		w.scanCalls(s)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the lock stays held for
		// the remainder of the walk, which is exactly what we check.
		// Deferred I/O still runs while any still-held locks are held,
		// so scan the deferred call too.
		if _, _, isOp := w.lockOp(s.Call); isOp {
			return
		}
		w.scanCalls(s)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.scanExpr(s.Cond)
		w.walkStmt(s.Body)
		if s.Else != nil {
			w.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		w.walkStmt(s.Body)
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		w.walkStmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		w.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.scanExpr(e)
		}
		w.walkStmts(s.Body)
	case *ast.SelectStmt:
		w.walkStmt(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			w.walkStmt(s.Comm)
		}
		w.walkStmts(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	default:
		w.scanCalls(stmt)
	}
}

// lockOp classifies expr as mu.Lock/RLock (locked=true) or
// mu.Unlock/RUnlock (locked=false) on a sync mutex, returning the
// mutex's source rendering as its identity.
func (w *lockWalker) lockOp(expr ast.Expr) (key string, locked, isOp bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locked = true
	case "Unlock", "RUnlock":
		locked = false
	default:
		return "", false, false
	}
	t := w.pass.Info.TypeOf(sel.X)
	if t == nil {
		return "", false, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	return types.ExprString(sel.X), locked, true
}

// scanCalls inspects a statement for calls that block while a lock is
// held. Function literals are skipped — they execute later, under
// whatever locks are held at *that* point, so charging them to this
// site would be wrong; their bodies are covered when they run inside a
// function the analyzer walks.
func (w *lockWalker) scanCalls(n ast.Node) {
	if len(w.held) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Spawning a goroutine does not block the lock holder; the
			// spawned work runs concurrently. Its arguments are still
			// evaluated here, so keep scanning them.
			for _, arg := range node.Call.Args {
				w.scanCalls(arg)
			}
			return false
		case *ast.CallExpr:
			w.checkCall(node)
		}
		return true
	})
}

func (w *lockWalker) scanExpr(e ast.Expr) {
	if e != nil {
		w.scanCalls(e)
	}
}

// checkCall reports call if it is a sink or a tainted same-package
// function while any lock is held.
func (w *lockWalker) checkCall(call *ast.CallExpr) {
	desc := sinkDescription(w.pass, call)
	if desc == "" {
		fn := calleeFunc(w.pass.Info, call)
		if fn == nil {
			return
		}
		why, ok := w.tainted[fn]
		if !ok {
			return
		}
		desc = fmt.Sprintf("calls %s, which %s", fn.Name(), why)
	}
	// One report per call, against a deterministically chosen lock.
	var key string
	for k := range w.held {
		if key == "" || k < key {
			key = k
		}
	}
	w.pass.Reportf(call.Pos(),
		"%s while %s is held (acquired at %s); move the I/O outside the critical section or annotate a dedicated I/O-serialization mutex with //lint:allow lockio <reason>",
		desc, key, w.pass.Fset.Position(w.held[key]))
}
