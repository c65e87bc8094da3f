package mcc_test

import (
	"errors"
	"strings"
	"testing"

	"elag/internal/asm"
	"elag/internal/codegen"
	"elag/internal/emu"
	"elag/internal/mcc"
	"elag/internal/passman"
)

// compileRun compiles MC source (optimized) and runs it, returning outputs.
func compileRun(t *testing.T, src string) emu.Result {
	t.Helper()
	mod, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st := &passman.State{Module: mod}
	mgr := passman.Manager{Verify: true}
	if err := mgr.Run(passman.ForLevel(passman.O2, false), st); err != nil {
		t.Fatalf("optimize and lower: %v", err)
	}
	res, err := emu.Run(st.Machine, 10_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, st.Asm)
	}
	return res
}

// compileRunUnopt runs the same program without optimizations.
func compileRunUnopt(t *testing.T, src string) emu.Result {
	t.Helper()
	mod, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	text, err := codegen.Generate(mod)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	prog, err := asm.Assemble(text)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := emu.Run(prog, 50_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func expectExit(t *testing.T, src string, want int64) {
	t.Helper()
	if res := compileRun(t, src); res.ExitCode != want {
		t.Errorf("exit = %d, want %d", res.ExitCode, want)
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	expectExit(t, `int main() { return 2 + 3 * 4 - 10 / 2; }`, 9)
	expectExit(t, `int main() { return (2 + 3) * 4; }`, 20)
	expectExit(t, `int main() { return 7 % 3 + (1 << 4) + (256 >> 2); }`, 81)
	expectExit(t, `int main() { return (12 & 10) | (1 ^ 3); }`, 10)
	expectExit(t, `int main() { return -5 + 8; }`, 3)
	expectExit(t, `int main() { return ~0 + 2; }`, 1)
	expectExit(t, `int main() { return !0 + !5; }`, 1)
}

func TestComparisonsAndLogical(t *testing.T) {
	expectExit(t, `int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }`, 4)
	expectExit(t, `int main() { return (1 && 2) + (0 && 1) + (0 || 3) + (0 || 0); }`, 2)
	// Short circuit: the divide by zero must not execute.
	expectExit(t, `int main() { int z = 0; if (z != 0 && 10 / z > 0) { return 1; } return 7; }`, 7)
	expectExit(t, `int main() { return 1 ? 42 : 7; }`, 42)
	expectExit(t, `int main() { return 0 ? 42 : 7; }`, 7)
}

func TestControlFlow(t *testing.T) {
	expectExit(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) { s += i; }
	return s;
}`, 45)
	expectExit(t, `
int main() {
	int s = 0;
	int i = 0;
	while (i < 5) { s += i * i; i++; }
	return s;
}`, 30)
	expectExit(t, `
int main() {
	int s = 0;
	int i = 0;
	do { s += 1; i++; } while (i < 3);
	return s;
}`, 3)
	expectExit(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		if (i == 5) { continue; }
		if (i == 8) { break; }
		s += i;
	}
	return s;
}`, 0+1+2+3+4+6+7)
	expectExit(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 3; i++) {
		for (int j = 0; j < 4; j++) {
			s += i * j;
		}
	}
	return s;
}`, 18)
}

func TestDoWhileRunsBodyFirst(t *testing.T) {
	expectExit(t, `
int main() {
	int n = 0;
	do { n++; } while (0);
	return n;
}`, 1)
}

func TestFunctionsAndRecursion(t *testing.T) {
	expectExit(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`, 144)
	expectExit(t, `
int add3(int a, int b, int c) { return a + b + c; }
int main() { return add3(1, add3(2, 3, 4), 5); }`, 15)
	expectExit(t, `
void bump(int *p) { *p = *p + 1; }
int main() { int x = 41; bump(&x); return x; }`, 42)
}

func TestGlobalsAndInitializers(t *testing.T) {
	expectExit(t, `
int g = 42;
int main() { return g; }`, 42)
	expectExit(t, `
int tab[4] = {10, 20, 30, 40};
int main() { return tab[0] + tab[3]; }`, 50)
	expectExit(t, `
int a = 5;
int *p = &a;
int main() { return *p; }`, 5)
	expectExit(t, `
char msg[6] = {104, 105, 0};
int main() { return msg[0] + msg[1]; }`, 209)
	expectExit(t, `
int big[100];
int main() {
	for (int i = 0; i < 100; i++) { big[i] = i; }
	return big[99];
}`, 99)
}

func TestPointersAndArrays(t *testing.T) {
	expectExit(t, `
int arr[10];
int main() {
	int *p = arr;
	for (int i = 0; i < 10; i++) { *p = i * 2; p = p + 1; }
	return arr[7];
}`, 14)
	expectExit(t, `
int arr[10];
int main() {
	int *p = &arr[9];
	int *q = &arr[2];
	return p - q;
}`, 7)
	expectExit(t, `
int main() {
	int local[8];
	for (int i = 0; i < 8; i++) { local[i] = i * i; }
	return local[5];
}`, 25)
	expectExit(t, `
int m[3][4];
int main() {
	for (int i = 0; i < 3; i++) {
		for (int j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
	}
	return m[2][3];
}`, 23)
}

func TestStructs(t *testing.T) {
	expectExit(t, `
struct point { int x; int y; };
struct point p;
int main() {
	p.x = 3;
	p.y = 4;
	return p.x * p.x + p.y * p.y;
}`, 25)
	expectExit(t, `
struct node { int val; struct node *next; };
struct node a;
struct node b;
int main() {
	a.val = 1;
	b.val = 2;
	a.next = &b;
	b.next = 0;
	int s = 0;
	struct node *p = &a;
	while (p) { s += p->val; p = p->next; }
	return s;
}`, 3)
	expectExit(t, `
struct wide { int a; char c; int b[3]; };
int main() {
	struct wide w;
	w.a = 1;
	w.c = 7;
	w.b[2] = 100;
	return w.a + w.c + w.b[2];
}`, 108)
}

func TestCharsAndStrings(t *testing.T) {
	expectExit(t, `
int main() { return 'A'; }`, 65)
	expectExit(t, `
int len(char *s) {
	int n = 0;
	while (s[n]) { n++; }
	return n;
}
int main() { return len("hello"); }`, 5)
	expectExit(t, `
char buf[16];
int main() {
	buf[0] = 200;
	char c = buf[0];
	if (c < 0) { return 1; }  /* chars are signed */
	return 0;
}`, 1)
}

func TestIncDec(t *testing.T) {
	expectExit(t, `int main() { int i = 5; int a = i++; return a * 100 + i; }`, 506)
	expectExit(t, `int main() { int i = 5; int a = ++i; return a * 100 + i; }`, 606)
	expectExit(t, `int main() { int i = 5; int a = i--; return a * 100 + i; }`, 504)
	expectExit(t, `
int arr[4] = {1, 2, 3, 4};
int main() {
	int *p = arr;
	int a = *p;
	p++;
	return a * 10 + *p;
}`, 12)
}

func TestCompoundAssign(t *testing.T) {
	expectExit(t, `
int main() {
	int x = 10;
	x += 5; x -= 3; x *= 2; x /= 4; x %= 4;  /* ((10+5-3)*2/4)%4 = 2 */
	x <<= 4; x >>= 2; x |= 1; x ^= 3; x &= 14;  /* ((2<<4>>2)|1)^3 & 14 = 10 */
	return x;
}`, 10)
}

func TestSizeof(t *testing.T) {
	expectExit(t, `
struct s { int a; int b; char c; };
int main() { return sizeof(int) + sizeof(char) + sizeof(int*) + sizeof(struct s); }`, 8+1+8+24)
}

func TestPrintBuiltins(t *testing.T) {
	res := compileRun(t, `
int main() {
	print_int(123);
	print_int(-9);
	print_char(88);
	return 0;
}`)
	if len(res.IntOut) != 2 || res.IntOut[0] != 123 || res.IntOut[1] != -9 {
		t.Errorf("int out = %v", res.IntOut)
	}
	if string(res.CharOut) != "X" {
		t.Errorf("char out = %q", res.CharOut)
	}
}

// TestOptimizedMatchesUnoptimized is the key compiler-correctness property:
// classical optimizations must preserve observable behaviour.
func TestOptimizedMatchesUnoptimized(t *testing.T) {
	srcs := []string{
		`
int tab[64];
int main() {
	int s = 0;
	for (int i = 0; i < 64; i++) { tab[i] = i * 3 + 1; }
	for (int i = 0; i < 64; i++) { s += tab[i] * tab[63 - i]; }
	print_int(s);
	return s & 1023;
}`,
		`
struct n { int v; struct n *nx; };
struct n pool[32];
int main() {
	for (int i = 0; i < 31; i++) { pool[i].v = i; pool[i].nx = &pool[i + 1]; }
	pool[31].v = 31;
	pool[31].nx = 0;
	int s = 0;
	struct n *p = &pool[0];
	while (p) { s += p->v; p = p->nx; }
	print_int(s);
	return s & 255;
}`,
		`
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int sq(int x) { return x * x; }
int main() {
	print_int(fact(10));
	print_int(sq(sq(3)));
	return 0;
}`,
	}
	for i, src := range srcs {
		a := compileRun(t, src)
		b := compileRunUnopt(t, src)
		if a.Output() != b.Output() {
			t.Errorf("program %d: optimized output %s != unoptimized %s", i, a.Output(), b.Output())
		}
		if a.DynamicInsts >= b.DynamicInsts {
			t.Errorf("program %d: optimizations did not shrink execution: %d >= %d",
				i, a.DynamicInsts, b.DynamicInsts)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`int main() { return x; }`, "undefined variable"},
		{`int main() { return f(); }`, "undefined function"},
		{`int main() { 3 = 4; }`, "not assignable"},
		{`int main() { return 1 + ; }`, "unexpected token"},
		{`int main() { break; }`, "break outside loop"},
		{`int f(int a) { return a; } int main() { return f(1, 2); }`, "argument"},
		{`int main() { int x; int x; return 0; }`, "redefined"},
		{`struct s { int a; }; int main() { struct s v; return v.b; }`, "no field"},
		{`int main() { int p; return *p; }`, "non-pointer"},
		{`int g() { return 1; }`, "no main"},
		{`int main() { return 0 `, "end of file"},
	}
	for _, c := range cases {
		_, err := mcc.Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error with %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) error %q, want substring %q", c.src, err, c.frag)
		}
	}
}

// TestErrorPositions: diagnostics from every front-end stage — lexer,
// parser, lowering — must carry the exact line:col of the offending token
// (columns are 1-based byte offsets into the line). Declaration-level
// diagnostics with no meaningful column carry Col 0 and render in the
// legacy line-only form.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
	}{
		{"lexer bad char", "int main() {\n\tint y = @;\n}", 2, 10},
		{"lexer unterminated comment", "/* never closed", 1, 15},
		{"parser bad expression", "int main() { return 1 + ; }", 1, 25},
		{"parser missing semicolon", "int main() { return 0 ", 1, 23},
		{"lowering undefined variable", "int main() {\n\treturn x;\n}", 2, 9},
		{"lowering arity mismatch",
			"int f(int a) { return a; }\nint main() {\n\treturn f(1, 2);\n}", 3, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mcc.Compile(c.src)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded", c.src)
			}
			var me *mcc.Error
			if !errors.As(err, &me) {
				t.Fatalf("error %v is not a *mcc.Error", err)
			}
			if me.Line != c.line || me.Col != c.col {
				t.Errorf("position %d:%d, want %d:%d (%v)", me.Line, me.Col, c.line, c.col, err)
			}
		})
	}

	// Whole-declaration diagnostics have no column.
	_, err := mcc.Compile("int g() { return 1; }")
	var me *mcc.Error
	if !errors.As(err, &me) {
		t.Fatalf("error %v is not a *mcc.Error", err)
	}
	if me.Col != 0 {
		t.Errorf("declaration-level diagnostic carries column %d", me.Col)
	}
	if got := err.Error(); strings.Contains(got, ":0:") {
		t.Errorf("column-less diagnostic rendered a column: %q", got)
	}
}

func TestCommentsAndLiterals(t *testing.T) {
	expectExit(t, `
// line comment
/* block
   comment */
int main() {
	int hex = 0x10;   // 16
	int ch = '\n';    // 10
	return hex + ch;  /* 26 */
}`, 26)
}

func TestSwitchStatement(t *testing.T) {
	expectExit(t, `
int classify(int x) {
	switch (x) {
	case 0:
		return 100;
	case 1:
	case 2:
		return 200;
	case -3:
		return 300;
	default:
		return 400;
	}
}
int main() {
	return classify(0) / 100 + classify(1) / 100 + classify(2) / 100 +
		classify(-3) / 100 + classify(99) / 100;   /* 1+2+2+3+4 */
}`, 12)
}

func TestSwitchFallthrough(t *testing.T) {
	expectExit(t, `
int main() {
	int n = 0;
	switch (2) {
	case 1:
		n += 1;
	case 2:
		n += 10;     /* entered here */
	case 3:
		n += 100;    /* falls through */
		break;
	case 4:
		n += 1000;   /* not reached: break above */
	}
	return n;
}`, 110)
}

func TestSwitchNoDefaultFallsOut(t *testing.T) {
	expectExit(t, `
int main() {
	int n = 7;
	switch (n) {
	case 1:
		return 1;
	}
	return 42;
}`, 42)
}

func TestSwitchInLoopWithBreak(t *testing.T) {
	expectExit(t, `
int code[8] = {0, 1, 2, 0, 1, 2, 3, 3};
int main() {
	int s = 0;
	for (int i = 0; i < 8; i++) {
		switch (code[i]) {
		case 0:
			s += 1;
			break;
		case 1:
			s += 10;
			break;
		case 2:
			s += 100;
			break;
		default:
			s += 1000;
			break;
		}
	}
	return s;  /* 2*1 + 2*10 + 2*100 + 2*1000 */
}`, 2222)
}

func TestSwitchErrors(t *testing.T) {
	cases := []string{
		`int main() { switch (1) { case x: return 0; } }`,
		`int main() { switch (1) { default: return 0; default: return 1; } }`,
		`int main() { switch (1) { return 0; } }`,
	}
	for _, src := range cases {
		if _, err := mcc.Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}
