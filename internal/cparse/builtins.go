package cparse

import (
	"sync"

	"repro/internal/cast"
	"repro/internal/ctype"
)

// builtinSet is the outermost scope every unit starts from, with its
// symbols in declaration order (IDs 0..len-1).
type builtinSet struct {
	scope *scope
	syms  []*cast.Symbol
}

// builtins declares the builtin scope once per process. Units share the
// scope and its symbols read-only: declare only ever writes to the
// innermost scope, and a unit's file scope sits above this one, so a
// redeclaration in a program makes a new symbol instead of rewriting a
// builtin.
var builtins = sync.OnceValue(func() builtinSet {
	p := &Parser{unit: &cast.TranslationUnit{}}
	p.pushScope()
	declareBuiltins(p)
	return builtinSet{scope: p.scopes[0], syms: p.unit.Symbols}
})

// declareBuiltins pre-declares the C library functions and objects that the
// paper's corpora use, so that identifier uses bind to typed symbols without
// requiring header files (the corpora are preprocessed translation units).
func declareBuiltins(p *Parser) {
	charPtr := ctype.PointerTo(ctype.CharType)
	constCharPtr := charPtr // qualifiers are not modeled
	voidPtr := ctype.PointerTo(ctype.VoidType)
	sizeT := ctype.SizeTType
	intT := ctype.IntType

	// FILE is opaque.
	fileRec := &ctype.Record{Tag: "_IO_FILE", Complete: true}
	fileT := &ctype.Named{Name: "FILE", Underlying: fileRec}
	filePtr := ctype.PointerTo(fileT)
	p.declare(&cast.Symbol{Name: "FILE", Kind: cast.SymTypedef, Type: fileT})
	p.declare(&cast.Symbol{Name: "size_t", Kind: cast.SymTypedef, Type: &ctype.Named{Name: "size_t", Underlying: sizeT}})
	p.declare(&cast.Symbol{Name: "ssize_t", Kind: cast.SymTypedef, Type: &ctype.Named{Name: "ssize_t", Underlying: ctype.LongType}})
	p.declare(&cast.Symbol{Name: "va_list", Kind: cast.SymTypedef, Type: &ctype.Named{Name: "va_list", Underlying: voidPtr}})
	p.declare(&cast.Symbol{Name: "errno_t", Kind: cast.SymTypedef, Type: &ctype.Named{Name: "errno_t", Underlying: intT}})

	obj := func(name string, t ctype.Type) {
		p.declare(&cast.Symbol{Name: name, Kind: cast.SymVar, Type: t, IsGlobal: true})
	}
	obj("stdin", filePtr)
	obj("stdout", filePtr)
	obj("stderr", filePtr)
	obj("errno", intT)
	obj("NULL", voidPtr)

	fn := func(name string, result ctype.Type, variadic bool, params ...ctype.Type) {
		p.declare(&cast.Symbol{
			Name:     name,
			Kind:     cast.SymFunc,
			Type:     &ctype.Func{Result: result, Params: params, Variadic: variadic},
			IsGlobal: true,
		})
	}

	// String and memory functions (the unsafe set targeted by SLR first).
	fn("strcpy", charPtr, false, charPtr, constCharPtr)
	fn("strncpy", charPtr, false, charPtr, constCharPtr, sizeT)
	fn("strcat", charPtr, false, charPtr, constCharPtr)
	fn("strncat", charPtr, false, charPtr, constCharPtr, sizeT)
	fn("sprintf", intT, true, charPtr, constCharPtr)
	fn("snprintf", intT, true, charPtr, sizeT, constCharPtr)
	fn("vsprintf", intT, false, charPtr, constCharPtr, voidPtr)
	fn("vsnprintf", intT, false, charPtr, sizeT, constCharPtr, voidPtr)
	fn("memcpy", voidPtr, false, voidPtr, voidPtr, sizeT)
	fn("memmove", voidPtr, false, voidPtr, voidPtr, sizeT)
	fn("memset", voidPtr, false, voidPtr, intT, sizeT)
	fn("memcmp", intT, false, voidPtr, voidPtr, sizeT)
	fn("gets", charPtr, false, charPtr)
	fn("fgets", charPtr, false, charPtr, intT, filePtr)
	fn("getenv", charPtr, false, constCharPtr)
	fn("strlen", sizeT, false, constCharPtr)
	fn("strcmp", intT, false, constCharPtr, constCharPtr)
	fn("strncmp", intT, false, constCharPtr, constCharPtr, sizeT)
	fn("strchr", charPtr, false, constCharPtr, intT)
	fn("strrchr", charPtr, false, constCharPtr, intT)
	fn("strstr", charPtr, false, constCharPtr, constCharPtr)
	fn("strdup", charPtr, false, constCharPtr)

	// Allocation.
	fn("malloc", voidPtr, false, sizeT)
	fn("calloc", voidPtr, false, sizeT, sizeT)
	fn("realloc", voidPtr, false, voidPtr, sizeT)
	fn("free", ctype.VoidType, false, voidPtr)
	fn("alloca", voidPtr, false, sizeT)
	fn("malloc_usable_size", sizeT, false, voidPtr)

	// I/O.
	fn("printf", intT, true, constCharPtr)
	fn("fprintf", intT, true, filePtr, constCharPtr)
	fn("puts", intT, false, constCharPtr)
	fn("putchar", intT, false, intT)
	fn("fopen", filePtr, false, constCharPtr, constCharPtr)
	fn("fclose", intT, false, filePtr)
	fn("fread", sizeT, false, voidPtr, sizeT, sizeT, filePtr)
	fn("fwrite", sizeT, false, voidPtr, sizeT, sizeT, filePtr)
	fn("scanf", intT, true, constCharPtr)

	// Process / misc.
	fn("exit", ctype.VoidType, false, intT)
	fn("abort", ctype.VoidType, false)
	fn("atoi", intT, false, constCharPtr)
	fn("atol", ctype.LongType, false, constCharPtr)
	fn("rand", intT, false)
	fn("srand", ctype.VoidType, false, ctype.UIntType)

	// Safe alternatives introduced by SLR (glib-style and C11 Annex K).
	fn("g_strlcpy", sizeT, false, charPtr, constCharPtr, sizeT)
	fn("g_strlcat", sizeT, false, charPtr, constCharPtr, sizeT)
	fn("g_snprintf", intT, true, charPtr, sizeT, constCharPtr)
	fn("g_vsnprintf", intT, false, charPtr, sizeT, constCharPtr, voidPtr)
	fn("strlcpy", sizeT, false, charPtr, constCharPtr, sizeT)
	fn("strlcat", sizeT, false, charPtr, constCharPtr, sizeT)
	fn("strcpy_s", intT, false, charPtr, sizeT, constCharPtr)
	fn("memcpy_s", intT, false, voidPtr, sizeT, voidPtr, sizeT)
	fn("gets_s", charPtr, false, charPtr, sizeT)
	fn("getenv_s", intT, false, ctype.PointerTo(sizeT), charPtr, sizeT, constCharPtr)
}
