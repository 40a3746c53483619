package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bitspread/internal/durable"
	"bitspread/internal/protocol"
	"bitspread/internal/vm"
)

// vmRulePrefix marks a JobSpec.Rule that references registered bytecode
// instead of a built-in: "vm:<content-address>".
const vmRulePrefix = "vm:"

// ProtocolSpec is the wire form of POST /v1/protocols: user bytecode for
// a decision rule, as assembly source or an encoded program, exactly one
// of the two. The daemon validates, gas-bounds and content-addresses it
// before any job may reference it.
type ProtocolSpec struct {
	// Name optionally overrides the program's embedded name.
	Name string `json:"name,omitempty"`
	// Asm is vm assembly source (see internal/vm.Assemble).
	Asm string `json:"asm,omitempty"`
	// Code is a base64-encoded vm program (vm.Encode bytes).
	Code string `json:"code,omitempty"`
}

// ProtocolStatus is the wire form of a registered protocol.
type ProtocolStatus struct {
	// ID is the program's content address; jobs reference it as "vm:<id>".
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Ell  int    `json:"ell"`
	// G0 and G1 are the materialized decision tables.
	G0 []float64 `json:"g0"`
	G1 []float64 `json:"g1"`
	// Asm is the canonical disassembly (detail endpoint only).
	Asm string `json:"asm,omitempty"`
}

// protoEntry is one registered protocol: validated bytecode plus its
// materialized (gas-bounded, Proposition 3-checked) table form.
type protoEntry struct {
	prog *vm.Program
	rule *protocol.Rule
}

// protoRegistry holds the registered user protocols, optionally mirrored
// to dir as one content-addressed .bsvm file per program.
type protoRegistry struct {
	dir  string
	fsys durable.FS

	mu   sync.RWMutex
	byID map[string]*protoEntry
}

// openProtoRegistry builds the registry, loading every persisted program
// from dataDir/protocols (empty dataDir: memory-only). Corrupt or
// no-longer-valid files are skipped with a diagnostic rather than failing
// startup.
func openProtoRegistry(fsys durable.FS, dataDir string, logf func(string, ...any)) (*protoRegistry, error) {
	reg := &protoRegistry{fsys: fsys, byID: map[string]*protoEntry{}}
	if dataDir == "" {
		return reg, nil
	}
	dir := filepath.Join(dataDir, "protocols")
	reg.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: protocol dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.bsvm"))
	if err != nil {
		return nil, fmt.Errorf("serve: scanning protocols: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			logf("serve: protocol %s: unreadable, skipped: %v", path, err)
			continue
		}
		prog, err := vm.Decode(data)
		if err != nil {
			logf("serve: protocol %s: corrupt, skipped: %v", path, err)
			continue
		}
		entry, err := buildProtoEntry(prog)
		if err != nil {
			logf("serve: protocol %s: no longer admissible, skipped: %v", path, err)
			continue
		}
		id := prog.Address()
		if filepath.Base(path) != id+".bsvm" {
			logf("serve: protocol %s: content address mismatch (want %s), skipped", path, id)
			continue
		}
		reg.byID[id] = entry
	}
	return reg, nil
}

// buildProtoEntry materializes and validates one program under the
// default gas and stack limits. The returned error is a client error:
// the bytecode is structurally sound but not admissible as a protocol.
func buildProtoEntry(prog *vm.Program) (*protoEntry, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	rule, err := prog.Materialize()
	if err != nil {
		return nil, err
	}
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	return &protoEntry{prog: prog, rule: rule}, nil
}

// register admits a validated entry, publishing its bytecode first when
// the registry is durable. Returns whether the id was new.
func (reg *protoRegistry) register(id string, entry *protoEntry) (bool, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.byID[id]; ok {
		return false, nil
	}
	if reg.dir != "" {
		if err := durable.Publish(reg.fsys, filepath.Join(reg.dir, id+".bsvm"), entry.prog.Encode()); err != nil {
			return false, fmt.Errorf("serve: persisting protocol: %w", err)
		}
	}
	reg.byID[id] = entry
	return true, nil
}

// lookup returns the registered entry for id.
func (reg *protoRegistry) lookup(id string) (*protoEntry, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	e, ok := reg.byID[id]
	return e, ok
}

// ids returns all registered content addresses, sorted.
func (reg *protoRegistry) ids() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]string, 0, len(reg.byID))
	//bitlint:maporder the listing is sorted immediately below
	for id := range reg.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// vmRule resolves a "vm:<id>" job rule reference against the registry.
// It implements the ruleResolver hook of JobSpec.buildTask.
func (s *Server) vmRule(ref string) (*protocol.Rule, error) {
	id := strings.TrimPrefix(ref, vmRulePrefix)
	entry, ok := s.protos.lookup(id)
	if !ok {
		return nil, fmt.Errorf("serve: unknown protocol %q (register it via POST /v1/protocols first)", ref)
	}
	return entry.rule, nil
}

// protoStatus renders an entry's wire form.
func protoStatus(id string, e *protoEntry, detail bool) ProtocolStatus {
	g0, g1 := e.rule.Tables()
	st := ProtocolStatus{
		ID:   id,
		Name: e.prog.Name,
		Ell:  e.prog.Ell,
		G0:   g0,
		G1:   g1,
	}
	if detail {
		if asm, err := e.prog.Disassemble(); err == nil {
			st.Asm = asm
		}
	}
	return st
}

// handleProtocolSubmit is POST /v1/protocols: decode, assemble or decode
// bytecode, validate under gas limits, reject environment-class rules,
// content-address, persist, register. Malformed input is 400; sound
// bytecode that is not admissible as a protocol (gas exhaustion,
// evaluation faults, Proposition 3 violations) is 422.
func (s *Server) handleProtocolSubmit(w http.ResponseWriter, r *http.Request) {
	var spec ProtocolSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad protocol spec: %v", err)
		return
	}
	if (spec.Asm == "") == (spec.Code == "") {
		writeError(w, http.StatusBadRequest, "exactly one of asm or code is required")
		return
	}

	var (
		prog *vm.Program
		err  error
	)
	if spec.Asm != "" {
		prog, err = vm.Assemble(spec.Asm)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		raw, derr := base64.StdEncoding.DecodeString(spec.Code)
		if derr != nil {
			writeError(w, http.StatusBadRequest, "bad code encoding: %v", derr)
			return
		}
		prog, err = vm.Decode(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if spec.Name != "" {
		prog.Name = spec.Name
	}

	entry, err := buildProtoEntry(prog)
	if err != nil {
		// Structural problems in the program itself are the client's
		// encoding mistake (400); everything past Validate is a semantic
		// admission failure (422): the bytecode runs but exhausts its gas
		// budget, faults during evaluation, or materializes to an
		// environment-class rule that cannot solve bit dissemination.
		status := http.StatusUnprocessableEntity
		if verr := prog.Validate(); verr != nil {
			status = http.StatusBadRequest
		}
		writeError(w, status, "%v", err)
		return
	}

	id := prog.Address()
	created, err := s.protos.register(id, entry)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Location", "/v1/protocols/"+id)
	writeJSON(w, code, protoStatus(id, entry, false))
}

// handleProtocolList is GET /v1/protocols: all registered protocols,
// sorted by content address.
func (s *Server) handleProtocolList(w http.ResponseWriter, r *http.Request) {
	ids := s.protos.ids()
	out := make([]ProtocolStatus, 0, len(ids))
	for _, id := range ids {
		if e, ok := s.protos.lookup(id); ok {
			out = append(out, protoStatus(id, e, false))
		}
	}
	//bitlint:taintdet ids() sorts the addresses before returning, so map iteration order cannot reach the payload
	writeJSON(w, http.StatusOK, out)
}

// handleProtocolGet is GET /v1/protocols/{id}: one protocol with its
// canonical disassembly.
func (s *Server) handleProtocolGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.protos.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown protocol %q", id)
		return
	}
	writeJSON(w, http.StatusOK, protoStatus(id, e, true))
}
