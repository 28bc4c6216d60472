package cases

import (
	"testing"

	"threatraptor/internal/audit"
)

// TestAttackSubgraphsConnected verifies a structural property real audit
// logs have and the fuzzy search mode depends on: within each case, the
// attack's entities form one weakly connected component of the provenance
// graph (process-creation and execve linkage tie the stages together).
// Cases whose reports deliberately diverge from the logs are exempt only
// where the divergence itself breaks the chain.
func TestAttackSubgraphsConnected(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.1)
			if err != nil {
				t.Fatal(err)
			}

			// Collect the attack's entity IDs.
			attack := map[int64]bool{}
			for _, id := range gen.AttackEventIDs {
				for i := range gen.Log.Events {
					ev := &gen.Log.Events[i]
					if ev.ID == id {
						attack[ev.SubjectID] = true
						attack[ev.ObjectID] = true
					}
				}
			}
			if len(attack) == 0 {
				t.Fatal("no attack entities")
			}

			// Count components by BFS over attack-event edges only.
			adj := map[int64][]int64{}
			idSet := map[int64]bool{}
			for _, id := range gen.AttackEventIDs {
				idSet[id] = true
			}
			for i := range gen.Log.Events {
				ev := &gen.Log.Events[i]
				if !idSet[ev.ID] {
					continue
				}
				adj[ev.SubjectID] = append(adj[ev.SubjectID], ev.ObjectID)
				adj[ev.ObjectID] = append(adj[ev.ObjectID], ev.SubjectID)
			}
			components := 0
			seen := map[int64]bool{}
			for id := range attack {
				if seen[id] {
					continue
				}
				components++
				seen[id] = true
				queue := []int64{id}
				for len(queue) > 0 {
					u := queue[0]
					queue = queue[1:]
					for _, v := range adj[u] {
						if !seen[v] {
							seen[v] = true
							queue = append(queue, v)
						}
					}
				}
			}
			// Some cases legitimately split: password_crack's stages are
			// bridged only by shell activity, data_leak's file-system scan
			// is narrative-only behavior apart from the exfil chain, and
			// tc_trace_4's dropper deliberately diverges from its report.
			maxComponents := 1
			switch c.ID {
			case "password_crack", "data_leak", "tc_trace_4":
				maxComponents = 2
			}
			if components > maxComponents {
				t.Errorf("attack subgraph has %d components (max %d)", components, maxComponents)
			}
		})
	}
}

// TestAttackEventsSurviveReduction: every distinct attack step remains
// represented after data reduction at the default threshold.
func TestAttackEventsSurviveReduction(t *testing.T) {
	for _, c := range All() {
		rawLog, attackKeys, err := c.GenerateRaw(0.1)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		_ = rawLog
		gen, err := c.Generate(0.1)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		found := map[string]bool{}
		for _, id := range gen.AttackEventIDs {
			for i := range gen.Log.Events {
				ev := &gen.Log.Events[i]
				if ev.ID == id {
					found[eventKey(gen.Log, ev)] = true
				}
			}
		}
		for key := range attackKeys {
			if !found[key] {
				t.Errorf("%s: attack step %q lost in reduction", c.ID, key)
			}
		}
	}
}

// TestBenignNoiseDoesNotCollide: no benign process shares an executable
// with a report-IOC'd process — the paper's perfect-precision claim rests
// on the synthesized patterns' IOC constraints never matching benign
// activity.
func TestBenignNoiseDoesNotCollide(t *testing.T) {
	for _, c := range All() {
		gen, err := c.Generate(0.2)
		if err != nil {
			t.Fatal(err)
		}
		// Processes touched by attack events (as subject or object).
		attackEnt := map[int64]bool{}
		for _, id := range gen.AttackEventIDs {
			for i := range gen.Log.Events {
				ev := &gen.Log.Events[i]
				if ev.ID == id {
					attackEnt[ev.SubjectID] = true
					attackEnt[ev.ObjectID] = true
				}
			}
		}
		iocExe := map[string]bool{}
		for _, e := range c.Entities {
			iocExe[e] = true
		}
		for _, e := range gen.Log.Entities.All() {
			if e.Kind != audit.EntityProcess || attackEnt[e.ID] {
				continue
			}
			if iocExe[e.Proc.ExeName] {
				t.Errorf("%s: benign process %v matches a report IOC", c.ID, e)
			}
		}
	}
}
