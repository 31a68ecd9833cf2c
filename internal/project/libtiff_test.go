package project

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// loadFixture loads the checked-in libtiff-shaped fixture.
func loadFixture(t *testing.T) *Project {
	return loadDB(t, filepath.Join("testdata", "libtiff"))
}

// loadDB loads the compile_commands.json in dir. Such databases use
// directory "." so paths resolve relative to dir; we chdir for the load
// (paths inside the returned project stay relative, which is fine for
// in-test use).
func loadDB(t *testing.T, dir string) *Project {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	p, err := Load("compile_commands.json")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLibTIFFFixtureProject drives the paper's libtiff case-study shape
// through project mode: a directory reader in one file misuses a helper
// defined in another, the overflow is only provable cross-file, and the
// conventional strcpy in the reader is repaired in the original text
// with the include and macros intact.
func TestLibTIFFFixtureProject(t *testing.T) {
	p := loadFixture(t)
	if len(p.TUs) != 2 {
		t.Fatalf("TUs = %d, want 2", len(p.TUs))
	}
	rep, err := p.Fix(context.Background(), core.Options{Lint: true, DisableSTR: true})
	if err != nil {
		t.Fatal(err)
	}
	edgeOK := false
	for _, e := range rep.Edges {
		if e.Callee == "_TIFFmemset8" && strings.Contains(e.CallerFile, "tif_dirread") {
			edgeOK = true
		}
	}
	if !edgeOK {
		t.Fatalf("cross-file edge to _TIFFmemset8 not linked: %+v", rep.Edges)
	}
	var crossFinding, fixed bool
	for _, out := range rep.Files {
		if out.Err != "" {
			t.Fatalf("%s failed: %s", out.File, out.Err)
		}
		switch {
		case strings.Contains(out.File, "tif_aux"):
			for _, f := range out.Fix.Findings {
				if f.Function == "_TIFFmemset8" && !f.Degraded {
					crossFinding = true
				}
			}
		case strings.Contains(out.File, "tif_dirread"):
			src := out.Fix.Source
			if !strings.Contains(src, "#include \"tiffio.h\"") ||
				!strings.Contains(src, "char tagbuf[TIFF_TAGBUF];") {
				t.Fatalf("original shape lost:\n%s", src)
			}
			if strings.Contains(src, "strcpy(tagbuf, \"II*\")") {
				t.Fatalf("strcpy not repaired:\n%s", src)
			}
			fixed = true
		}
	}
	if !crossFinding {
		t.Fatal("cross-file overflow in _TIFFmemset8 not found")
	}
	if !fixed {
		t.Fatal("tif_dirread.c outcome missing")
	}
}

// TestLibTIFFRealTree runs project mode over a real libtiff checkout
// when one is provided (network-less CI skips it): point
// CFIX_LIBTIFF_DB at a compile_commands.json generated for the tree.
func TestLibTIFFRealTree(t *testing.T) {
	db := os.Getenv("CFIX_LIBTIFF_DB")
	if db == "" {
		t.Skip("CFIX_LIBTIFF_DB not set; skipping real-tree libtiff run")
	}
	p, err := Load(db)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Analyze(context.Background(), core.Options{
		DisableSLR: true, DisableSTR: true, Lint: true, KeepGoing: true, Budget: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	for _, out := range rep.Files {
		if out.Err != "" {
			failed++
			continue
		}
		ok++
	}
	t.Logf("libtiff: %d units analyzed, %d failed, %d cross-file edges", ok, failed, len(rep.Edges))
	if ok == 0 {
		t.Fatal("no translation unit analyzed successfully")
	}
}
