package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strconv"
	"strings"
)

// StorekeyAnalyzer enforces the key-grammar invariant: the strings that
// name persisted cells, replica units and rendered serve documents are
// a schema. Their reserved fragments — the "v<N>/<mode>/seed<S>/..."
// store-key prefix, the "/rep=K" replica segment, the "servecell/" and
// "servediag/" rendered-document namespaces — may be *built* only by
// the canonical helpers in internal/core (cellKey, replicaKey,
// ServeCellKey, ServeDiagKey). An ad-hoc
// fmt.Sprintf or string concatenation that spells one of these
// fragments elsewhere will drift from the schema on the next version
// bump and silently split or alias the warm cache.
//
// Reading keys is always legal: strings.LastIndex(key, "/rep=") parses,
// it does not build. Only literals used as operands of string
// concatenation or arguments to fmt formatting calls are flagged.
//
// Inside internal/core's key-derivation helpers (the canonical ones,
// plus the fingerprints and the campaign salt they hash in), fmt may
// not format with %v in any spelling (%v, %+v, %#v, ...), nor through
// Sprint and friends, which format every operand with %v: %v renders
// whatever a type's String method or Go's default formatting makes of
// a value, which changes when a type gains a field or a method, and a
// key that changes that way splits the warm cache without a schema
// bump. Keys name their parts with explicit verbs or hash an explicit
// encoding.
var StorekeyAnalyzer = &Analyzer{
	Name: "storekey",
	Doc: "reserved store-key fragments may only be assembled by the canonical helpers in internal/core; ad-hoc Sprintf/concatenation drifts from the key schema, " +
		"and key derivation may not format with %v",
	Run: runStorekey,
}

// reservedKeyFragments are the substrings that mark a string literal as
// part of the persisted-key grammar.
var reservedKeyFragments = []string{
	"servecell/",
	"servediag/",
	"/rep=",
	"v%d/seed",    // pre-v4 store-key prefix (kept so old spellings stay flagged)
	"v%d/%s/seed", // v4+ store-key prefix with the bare/diag mode segment
}

// canonicalKeyHelpers are the internal/core functions allowed to
// assemble reserved fragments.
var canonicalKeyHelpers = map[string]bool{
	"cellKey":      true,
	"replicaKey":   true,
	"ServeCellKey": true,
	"ServeDiagKey": true,
}

// keyDerivationFuncs are the internal/core functions and methods whose
// output becomes part of a store key. A bare name matches a function
// or a method of any receiver; "Receiver.name" matches only that
// receiver's method.
var keyDerivationFuncs = map[string]bool{
	"cellKey":               true,
	"replicaKey":            true,
	"ServeCellKey":          true,
	"ServeDiagKey":          true,
	"scaleFingerprint":      true,
	"fingerprint":           true,
	"resolvedCampaign.salt": true,
}

func runStorekey(pass *Pass) {
	inCore := pass.Path == "internal/core" || strings.HasSuffix(pass.Path, "/internal/core")
	for _, f := range pass.Files {
		if inCore {
			checkKeyVerbs(pass, f)
		}
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			val, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			frag := reservedFragment(val)
			if frag == "" {
				return true
			}
			if !buildsString(pass, parents, lit) {
				return true
			}
			if inCore {
				if fn := parents.enclosingFunc(lit); fn != nil && canonicalKeyHelpers[fn.Name.Name] {
					return true
				}
			}
			pass.Reportf(lit.Pos(),
				"key fragment %q assembled outside the canonical helpers "+
					"(core cellKey/replicaKey/ServeCellKey); ad-hoc keys drift from the "+
					"schema and break warm-cache byte-identity", frag)
			return true
		})
	}
}

func reservedFragment(s string) string {
	for _, frag := range reservedKeyFragments {
		if strings.Contains(s, frag) {
			return frag
		}
	}
	return ""
}

// buildsString reports whether lit participates in string construction:
// an operand of a + concatenation, or an argument of a fmt call. A
// literal passed to strings.HasPrefix, LastIndex, TrimPrefix and
// friends is parsing, not building, and stays legal.
func buildsString(pass *Pass, parents parentMap, lit *ast.BasicLit) bool {
	switch parent := parents[lit].(type) {
	case *ast.BinaryExpr:
		return parent.Op == token.ADD
	case *ast.CallExpr:
		if sel, ok := parent.Fun.(*ast.SelectorExpr); ok && isPkg(pass, sel.X, "fmt") {
			return true
		}
	}
	return false
}

// checkKeyVerbs reports every %v formatting inside f's key-derivation
// functions (keyDerivationFuncs), closures inside them included.
func checkKeyVerbs(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !keyDerivationFuncs[fd.Name.Name] && !keyDerivationFuncs[funcDeclName(fd)] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isPkg(pass, sel.X, "fmt") {
				return true
			}
			if _, ok := implicitFuncs[sel.Sel.Name]; ok {
				pass.Reportf(call.Pos(),
					"fmt.%s in key derivation %s formats its operands with %%v; "+
						"spell each key part with an explicit verb or hash an explicit encoding", sel.Sel.Name, funcDeclName(fd))
				return true
			}
			fi, ok := formattedFuncs[sel.Sel.Name]
			if !ok || fi >= len(call.Args) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[fi]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			for _, v := range parseVerbs(constant.StringVal(tv.Value)) {
				if v.char == 'v' {
					pass.Reportf(call.Args[fi].Pos(),
						"%%v in key derivation %s formats through String methods and Go's default formatting, "+
							"which change with the type; spell each key part with an explicit verb or hash an explicit encoding", funcDeclName(fd))
					break
				}
			}
			return true
		})
	}
}

// funcDeclName names fd "name" for a function and "Receiver.name" for
// a method.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
