// Statement-level intraprocedural control-flow graphs. The builder
// covers the statement forms the analyzers care about — if/else, for,
// range, switch, type switch, select, labeled break/continue, return —
// and is deliberately conservative elsewhere (goto edges go to the
// function exit, so facts stay sound rather than precise). Function
// literals are NOT inlined into the enclosing graph: a closure runs at
// some other time, so its statements belong to its own CFG.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of statements. Statements appear in
// execution order; control transfers only at the end of the block.
type Block struct {
	// Stmts are the block's statements in order. Compound statements
	// (if/for/switch/...) never appear here — only their init/condition
	// scaffolding and simple statements do.
	Stmts []ast.Stmt
	// Cond, when non-nil, is a condition evaluated after Stmts; Succs[0]
	// is then the true edge and Succs[1] the false edge. The lock
	// dataflow reads it for events: a condition's calls run like any
	// statement's.
	Cond ast.Expr
	// Succs are the successor blocks.
	Succs []*Block

	index int
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Entry *Block
	// Exit is a synthetic block every return (and the fall-off-the-end
	// path) flows into.
	Exit   *Block
	Blocks []*Block
}

type cfgBuilder struct {
	cfg *CFG
	// brk/cont map label names to jump targets; "" is the innermost
	// enclosing loop or switch.
	brk, cont map[string]*Block
}

// BuildCFG constructs the CFG for one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:  &CFG{},
		brk:  map[string]*Block{},
		cont: map[string]*Block{},
	}
	b.cfg.Exit = b.newBlock()
	b.cfg.Entry = b.newBlock()
	last := b.stmts(b.cfg.Entry, body.List)
	if last != nil {
		b.edge(last, b.cfg.Exit)
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) { from.Succs = append(from.Succs, to) }

// stmts threads the statement list through cur, returning the block
// control falls out of, or nil when the list always transfers away
// (return/break/continue/goto on every path).
func (b *cfgBuilder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Dead code after a terminator still gets a (disconnected)
			// block so its statements are visited exactly once.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// stmt adds one statement to cur; label carries a pending label name
// down to the loop/switch it annotates.
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt, label string) *Block {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		return b.stmt(cur, s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.brk[name]; t != nil {
				b.edge(cur, t)
				return nil
			}
		case token.CONTINUE:
			if t := b.cont[name]; t != nil {
				b.edge(cur, t)
				return nil
			}
		case token.FALLTHROUGH:
			// Handled by the switch builder (the clause body's fallthrough
			// edge); reaching here means a malformed tree — treat as exit.
		}
		// goto, or a branch whose target we do not track: conservatively
		// route to the function exit so no fact flows past it unseen.
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Cond = s.Cond
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then) // Succs[0]: condition true
		if end := b.stmts(then, s.Body.List); end != nil {
			b.edge(end, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els) // Succs[1]: condition false
			if end := b.stmt(els, s.Else, ""); end != nil {
				b.edge(end, after)
			}
		} else {
			b.edge(cur, after) // Succs[1]: condition false
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			head.Cond = s.Cond
			b.edge(head, body)  // true
			b.edge(head, after) // false
		} else {
			b.edge(head, body) // for {}: after is reachable only via break
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Stmts = append(post.Stmts, s.Post)
			b.edge(post, head)
		}
		sb, sc := b.pushLoop(label, after, post)
		if end := b.stmts(body, s.Body.List); end != nil {
			b.edge(end, post)
		}
		b.popLoop(label, sb, sc)
		return after

	case *ast.RangeStmt:
		// The range expression (and key/value assignment) evaluates at
		// the head; model it as a head block with a body edge and an
		// exhausted edge.
		head := b.newBlock()
		head.Stmts = append(head.Stmts, s)
		b.edge(cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		sb, sc := b.pushLoop(label, after, head)
		if end := b.stmts(body, s.Body.List); end != nil {
			b.edge(end, head)
		}
		b.popLoop(label, sb, sc)
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				cur.Stmts = append(cur.Stmts, sw.Init)
			}
			if sw.Tag != nil {
				cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: sw.Tag})
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				cur.Stmts = append(cur.Stmts, sw.Init)
			}
			cur.Stmts = append(cur.Stmts, sw.Assign)
			clauses = sw.Body.List
		}
		after := b.newBlock()
		saved := b.pushSwitch(label, after)
		hasDefault := false
		bodies := make([]*Block, len(clauses))
		ends := make([]*Block, len(clauses))
		for i, c := range clauses {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			bodies[i] = b.newBlock()
			b.edge(cur, bodies[i])
			ends[i] = b.stmts(bodies[i], cc.Body)
		}
		for i, end := range ends {
			if end == nil {
				continue
			}
			if fallsThrough(clauses[i].(*ast.CaseClause).Body) && i+1 < len(bodies) {
				b.edge(end, bodies[i+1])
			} else {
				b.edge(end, after)
			}
		}
		if !hasDefault {
			b.edge(cur, after)
		}
		b.popSwitch(label, saved)
		return after

	case *ast.SelectStmt:
		after := b.newBlock()
		saved := b.pushSwitch(label, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := b.newBlock()
			if cc.Comm != nil {
				body.Stmts = append(body.Stmts, cc.Comm)
			}
			b.edge(cur, body)
			if end := b.stmts(body, cc.Body); end != nil {
				b.edge(end, after)
			}
		}
		b.popSwitch(label, saved)
		return after

	default:
		// Simple statements: assignments, expressions, go, defer, send,
		// incdec, declarations, empty.
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
}

// pushLoop/popLoop and pushSwitch/popSwitch save and restore the
// enclosing jump targets, so nested loops and switches see the right
// innermost ("") target when the inner construct ends.
func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) (savedBrk, savedCont *Block) {
	savedBrk, savedCont = b.brk[""], b.cont[""]
	b.brk[""], b.cont[""] = brk, cont
	if label != "" {
		b.brk[label], b.cont[label] = brk, cont
	}
	return savedBrk, savedCont
}

func (b *cfgBuilder) popLoop(label string, savedBrk, savedCont *Block) {
	b.brk[""], b.cont[""] = savedBrk, savedCont
	if label != "" {
		delete(b.brk, label)
		delete(b.cont, label)
	}
}

func (b *cfgBuilder) pushSwitch(label string, brk *Block) (savedBrk *Block) {
	savedBrk = b.brk[""]
	b.brk[""] = brk
	if label != "" {
		b.brk[label] = brk
	}
	return savedBrk
}

func (b *cfgBuilder) popSwitch(label string, savedBrk *Block) {
	b.brk[""] = savedBrk
	if label != "" {
		delete(b.brk, label)
	}
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}
