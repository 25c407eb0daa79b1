package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRegistryLoadFileAndEnv(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	blob := `{"tenants":[
		{"name":"alice","token":"tok-a","weight":2,"max_queued":4},
		{"name":"bob","rate_per_sec":5,"burst":2}
	]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	// Env pairs add tenants and override file tokens: the
	// quotas-in-file, credentials-in-env deployment split.
	r, err := LoadRegistry(path, "bob=tok-b, carol=tok-c")
	if err != nil {
		t.Fatalf("LoadRegistry: %v", err)
	}
	if got := r.TenantNames(); len(got) != 3 {
		t.Fatalf("tenant names = %v, want 3", got)
	}
	a, err := r.Authenticate("Bearer tok-a")
	if err != nil || a.Name != "alice" || a.Weight != 2 || a.MaxQueued != 4 {
		t.Fatalf("alice auth = %+v, %v", a, err)
	}
	b, err := r.Authenticate("Bearer tok-b")
	if err != nil || b.Name != "bob" || b.RatePerSec != 5 {
		t.Fatalf("bob auth (env token over file quota) = %+v, %v", b, err)
	}
	if c, err := r.Authenticate("Bearer tok-c"); err != nil || c.Name != "carol" {
		t.Fatalf("carol auth (env-only tenant) = %+v, %v", c, err)
	}
}

func TestRegistryLoadErrors(t *testing.T) {
	if _, err := LoadRegistry("", "novalue"); err == nil {
		t.Fatal("malformed env pair accepted")
	}
	if r, err := LoadRegistry("", ""); err != nil || r != nil {
		t.Fatalf("empty config should be open mode (nil, nil); got %v, %v", r, err)
	}
	if _, err := NewRegistry([]Tenant{{Name: "a", Token: "t"}, {Name: "a", Token: "u"}}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewRegistry([]Tenant{{Name: "a", Token: "t"}, {Name: "b", Token: "t"}}); err == nil {
		t.Fatal("duplicate token accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants":[{"name":"a","unknown_field":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegistry(bad, ""); err == nil {
		t.Fatal("unknown registry field accepted (typo-squatted quota keys must fail loudly)")
	}
}

func TestRegistryAuthenticate(t *testing.T) {
	r, err := NewRegistry([]Tenant{
		{Name: "alice", Token: "tok-a"},
		{Name: "mallory", Token: "tok-m", Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, hdr := range []string{"", "Bearer ", "Bearer wrong", "Basic tok-a", "tok-a"} {
		if _, err := r.Authenticate(hdr); !errors.Is(err, ErrUnauthenticated) {
			t.Fatalf("Authenticate(%q) = %v, want ErrUnauthenticated", hdr, err)
		}
	}
	if _, err := r.Authenticate("Bearer tok-m"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("disabled tenant = %v, want ErrForbidden", err)
	}
	// Nil registry: open mode, everyone is the anonymous tenant.
	var open *Registry
	if tn, err := open.Authenticate(""); err != nil || tn.Name != "" {
		t.Fatalf("open mode auth = %+v, %v", tn, err)
	}
}

func TestTokenBucket(t *testing.T) {
	r, err := NewRegistry([]Tenant{{Name: "bob", Token: "t", RatePerSec: 2, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }

	// Burst drains first, then the bucket rejects with the refill wait.
	for i := 0; i < 2; i++ {
		if ok, _ := r.AllowSubmit("bob"); !ok {
			t.Fatalf("burst submission %d rejected", i)
		}
	}
	ok, retry := r.AllowSubmit("bob")
	if ok {
		t.Fatal("empty bucket admitted a submission")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after = %v, want (0, 500ms] at 2/s", retry)
	}
	if tokens, limited, present := r.bucketState("bob"); !present || limited != 1 || tokens < 0 {
		t.Fatalf("bucket state = %v tokens, %d limited, %v", tokens, limited, present)
	}

	// Refill admits again; the level is clamped at burst, never beyond.
	now = now.Add(10 * time.Second)
	if ok, _ := r.AllowSubmit("bob"); !ok {
		t.Fatal("refilled bucket rejected a submission")
	}
	if tokens, _, _ := r.bucketState("bob"); tokens < 0 || tokens > 2 {
		t.Fatalf("bucket level %v outside [0, burst]", tokens)
	}

	// Rate-less and unknown tenants are never limited.
	for i := 0; i < 100; i++ {
		if ok, _ := r.AllowSubmit("nobody"); !ok {
			t.Fatal("unknown tenant rate-limited")
		}
	}
	var open *Registry
	if ok, _ := open.AllowSubmit("anyone"); !ok {
		t.Fatal("open mode rate-limited")
	}
}

func TestTenantDefaults(t *testing.T) {
	if (Tenant{}).weight() != 1 || (Tenant{Weight: -3}).weight() != 1 || (Tenant{Weight: 4}).weight() != 4 {
		t.Fatal("weight defaulting broken")
	}
	if (Tenant{}).burst() != 1 {
		t.Fatalf("zero tenant burst = %v, want 1", (Tenant{}).burst())
	}
	if (Tenant{RatePerSec: 8}).burst() != 8 {
		t.Fatalf("rate-derived burst = %v, want 8", (Tenant{RatePerSec: 8}).burst())
	}
	if (Tenant{RatePerSec: 8, Burst: 3}).burst() != 3 {
		t.Fatalf("explicit burst = %v, want 3", (Tenant{RatePerSec: 8, Burst: 3}).burst())
	}
}
